package service

// The HTTP/JSON surface of the sweep service.
//
//	POST   /v1/runs            submit a scenario body (?priority=high|normal)
//	GET    /v1/runs            list runs
//	GET    /v1/runs/{id}       one run's status
//	GET    /v1/runs/{id}/events  progress stream: NDJSON, or SSE with
//	                             Accept: text/event-stream
//	GET    /v1/runs/{id}/report  the completed run's report (?fig=3a..6b,
//	                             ?csv=1) — byte-identical to leaksweep stdout
//	DELETE /v1/runs/{id}       cancel a queued or running run
//	GET    /healthz            liveness
//	GET    /metrics            Prometheus-style text metrics
//
// Scenario validation failures map to 400 with a machine-readable "kind"
// drawn from the scenario package's sentinel taxonomy; an oversized body is
// 413; a full queue is 503; an unknown run is 404; a report requested
// before the run is done is 409.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"cmpleak/internal/experiment"
	"cmpleak/internal/scenario"
)

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Kind classifies scenario validation failures ("syntax", "version",
	// "empty_axis", ...); empty otherwise.
	Kind string `json:"kind,omitempty"`
}

// scenarioKinds maps the scenario sentinel errors to stable wire names.
var scenarioKinds = []struct {
	err  error
	kind string
}{
	{scenario.ErrSyntax, "syntax"},
	{scenario.ErrVersion, "version"},
	{scenario.ErrEmptyAxis, "empty_axis"},
	{scenario.ErrDuplicate, "duplicate"},
	{scenario.ErrBenchmark, "benchmark"},
	{scenario.ErrSize, "size"},
	{scenario.ErrTechnique, "technique"},
	{scenario.ErrCores, "cores"},
	{scenario.ErrScale, "scale"},
	{scenario.ErrOverride, "override"},
	{scenario.ErrMix, "mix"},
	{scenario.ErrBenchmarkFile, "benchmark_file"},
	{scenario.ErrBenchmarkCores, "benchmark_cores"},
}

func scenarioKind(err error) string {
	for _, k := range scenarioKinds {
		if errors.Is(err, k.err) {
			return k.kind
		}
	}
	return ""
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/report", s.handleReport)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, kind, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...), Kind: kind})
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "",
			"scenario body exceeds %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	high := false
	switch pr := req.URL.Query().Get("priority"); pr {
	case "", "normal":
	case "high":
		high = true
	default:
		writeError(w, http.StatusBadRequest, "", "unknown priority %q (want high or normal)", pr)
		return
	}
	st, err := s.Submit(body, high)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, errQueueFull):
		writeError(w, http.StatusServiceUnavailable, "", "%v", err)
	case errors.Is(err, errClosed):
		writeError(w, http.StatusServiceUnavailable, "", "%v", err)
	default:
		writeError(w, http.StatusBadRequest, scenarioKind(err), "%v", err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	st, ok := s.Status(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "", "unknown run %q", req.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	if !s.Cancel(req.PathValue("id")) {
		writeError(w, http.StatusNotFound, "", "unknown run %q", req.PathValue("id"))
		return
	}
	st, _ := s.Status(req.PathValue("id"))
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a run's progress log from the start: every event
// already logged, then new ones as they land, until the run reaches a
// terminal state (or the client goes away).  Default framing is NDJSON
// (application/x-ndjson, one JSON event per line); with Accept:
// text/event-stream each event is an SSE data frame instead.  It flushes
// only before it waits, so the log of a run that is already terminal goes
// out in one write, with a Content-Length when it is short.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	r, ok := s.runs[req.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "", "unknown run %q", req.PathValue("id"))
		return
	}
	sse := strings.Contains(req.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	next := 0
	for {
		s.mu.Lock()
		events := r.events[next:]
		next = len(r.events)
		changed := r.changed
		terminal := r.state == StateDone || r.state == StateFailed || r.state == StateCanceled
		s.mu.Unlock()

		// Encode writes the event and its newline; an SSE frame wraps that
		// in "data: " and a blank line.
		for _, ev := range events {
			if sse {
				if _, err := io.WriteString(w, "data: "); err != nil {
					return
				}
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if sse {
				if _, err := io.WriteString(w, "\n"); err != nil {
					return
				}
			}
		}
		if terminal {
			return
		}
		if len(events) > 0 && flusher != nil {
			flusher.Flush()
		}
		select {
		case <-changed:
		case <-req.Context().Done():
			return
		}
	}
}

// handleReport serves a completed run's report: the same bytes `leaksweep`
// prints to stdout for the same scenario — per-cell banners (multi-cell,
// non-CSV only, exactly as the CLI emits them to stdout) and the shared
// experiment.WriteReport renderer, whose output each cell output renders
// once per variant and then serves from memory.
func (s *Server) handleReport(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	r, ok := s.runs[req.PathValue("id")]
	var (
		state   State
		outputs []*cellOutput
		cells   []scenario.Cell
	)
	if ok {
		state, outputs, cells = r.state, r.outputs, r.cells
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "", "unknown run %q", req.PathValue("id"))
		return
	}
	if state != StateDone {
		writeError(w, http.StatusConflict, "", "run %s is %s; the report exists once it is done",
			req.PathValue("id"), state)
		return
	}
	q := req.URL.Query()
	csv := false
	switch v := q.Get("csv"); v {
	case "", "0", "false":
	case "1", "true":
		csv = true
	default:
		writeError(w, http.StatusBadRequest, "", "csv must be a boolean, got %q", v)
		return
	}
	v, ok := newReportVariant(q.Get("fig"), csv)
	if !ok {
		writeError(w, http.StatusBadRequest, "", "unknown figure %q (want 3a..6b)", v.fig)
		return
	}
	if csv {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	}
	w.WriteHeader(http.StatusOK)
	// An error means the client is gone; there is nothing to add mid-body.
	writeReport(w, cells, outputs, v)
}

// writeReport writes a done run's report: per-cell banners (multi-cell,
// non-CSV only, exactly as leaksweep emits them to stdout) around each
// cell output's rendering of v.  The banners name the run's own cells, so
// they are written per request: runs that share an output may name its
// cell differently.
func writeReport(w io.Writer, cells []scenario.Cell, outputs []*cellOutput, v reportVariant) error {
	for i := range cells {
		if len(cells) > 1 && !v.csv {
			if _, err := fmt.Fprintf(w, "== %s ==\n\n", cells[i].Name); err != nil {
				return err
			}
		}
		body, err := outputs[i].report(v)
		if err != nil {
			return err
		}
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// reportVariant is one rendering of a cell's report: the full report (fig
// "") or one figure, as markdown or as CSV.  slot is its index in
// cellOutput.reports; figure names that differ only in case share a slot.
type reportVariant struct {
	fig  string
	csv  bool
	slot int
}

// numReportVariants bounds the renderings one output holds: the full report
// and each figure, as markdown and as CSV.
const numReportVariants = 2 * (1 + experiment.NumFigures)

// newReportVariant checks a report request's figure name without building
// any table; ok is false for an unknown figure.
func newReportVariant(fig string, csv bool) (v reportVariant, ok bool) {
	v = reportVariant{fig: fig, csv: csv}
	if fig != "" {
		i, ok := experiment.FigureIndex(fig)
		if !ok {
			return v, false
		}
		v.slot = 2 * (1 + i)
	}
	if csv {
		v.slot++
	}
	return v, true
}

// renderReport renders one report variant of a sweep — a seam so
// in-package tests can count renders.
var renderReport = experiment.WriteReport

// report returns out's rendering of v, rendering it on v's first request;
// concurrent first requests wait for that one rendering.  Callers must not
// modify the returned bytes.
func (out *cellOutput) report(v reportVariant) ([]byte, error) {
	r := &out.reports[v.slot]
	r.once.Do(func() {
		var buf bytes.Buffer
		r.err = renderReport(&buf, out.sweep, v.fig, v.csv)
		// The bytes live as long as the output: keep no spare capacity.
		r.body = bytes.Clone(buf.Bytes())
	})
	return r.body, r.err
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, "", "shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics emits Prometheus-style text metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	uptime := time.Since(s.start).Seconds()
	states := map[State]int{}
	jobsTotal := 0
	for _, r := range s.runs {
		states[r.state]++
		jobsTotal += r.jobs
	}
	queueDepth := len(s.queueHigh) + len(s.queueNorm)
	jobsDone, hits, lookups, shared := s.jobsDone, s.cacheHits, s.cacheLookups, s.cellsShared
	doneAtSubmit := s.runsDoneAtSubmit
	s.mu.Unlock()
	s.memo.mu.Lock()
	reused := s.memo.reused
	s.memo.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "leakserved_uptime_seconds %.3f\n", uptime)
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "leakserved_runs_total{state=%q} %d\n", st, states[st])
	}
	fmt.Fprintf(w, "leakserved_jobs_total %d\n", jobsTotal)
	fmt.Fprintf(w, "leakserved_jobs_done_total %d\n", jobsDone)
	rate := 0.0
	if uptime > 0 {
		rate = float64(jobsDone) / uptime
	}
	fmt.Fprintf(w, "leakserved_jobs_per_second %.3f\n", rate)
	fmt.Fprintf(w, "leakserved_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "leakserved_cache_lookups_total %d\n", lookups)
	fmt.Fprintf(w, "leakserved_cache_hits_total %d\n", hits)
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	fmt.Fprintf(w, "leakserved_cache_hit_ratio %.4f\n", ratio)
	fmt.Fprintf(w, "leakserved_cells_shared_total %d\n", shared)
	fmt.Fprintf(w, "leakserved_expansions_reused_total %d\n", reused)
	fmt.Fprintf(w, "leakserved_runs_done_at_submit_total %d\n", doneAtSubmit)
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		fmt.Fprintf(w, "leakserved_store_entries %d\n", st.Entries)
		fmt.Fprintf(w, "leakserved_store_live_bytes %d\n", st.LiveBytes)
		fmt.Fprintf(w, "leakserved_store_total_bytes %d\n", st.TotalBytes)
		fmt.Fprintf(w, "leakserved_store_segments %d\n", st.Segments)
		fmt.Fprintf(w, "leakserved_store_evictions_total %d\n", st.Evictions)
		fmt.Fprintf(w, "leakserved_store_compactions_total %d\n", st.Compactions)
	}
}
