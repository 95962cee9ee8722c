package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"cmpleak/internal/core"
	"cmpleak/internal/experiment"
	"cmpleak/internal/resultcache"
	"cmpleak/internal/service"
)

// svc is service-warm: an in-process leakserved over a warmed result cache,
// driven over HTTP by two closed-loop clients.  Every request hits the cache
// for all of its jobs, so the time goes to HTTP/JSON, scenario expansion,
// options digests, cache reads and report rendering.
//
// leakserved keeps every finished run in memory, so the timed phase runs in
// rounds: each round starts a fresh service.New over the same store, serves
// sizes.serviceRound requests and is closed.  That bounds the benchmark's
// own memory; service.retained_kb_per_run reports what each run leaves
// behind.
type svc struct {
	cfg    runConfig
	body   []byte
	setups int
	store  *resultcache.Store
	dir    string

	// The cold submission's outputs, which every request must reproduce.
	digests []string
	report  []byte
	cycles  float64 // simulated cycles behind one request's results

	// Traced-pass samples.
	submitMs, waitMs, reportMs, retainedKB []float64
	hits, lookups                          uint64
}

func newService(cfg runConfig) *svc { return &svc{cfg: cfg} }

// leakserved is one running service instance.
type leakserved struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func startService(store *resultcache.Store) *leakserved {
	srv := service.New(service.Config{Workers: workers, Store: store})
	ts := httptest.NewServer(srv.Handler())
	return &leakserved{srv: srv, ts: ts, client: ts.Client()}
}

func (l *leakserved) stop() error {
	l.ts.Close()
	return l.srv.Close()
}

// setup opens a fresh store and warms it with one cold submission of the
// scenario; the last repetition's store serves the timed phases.
func (s *svc) setup() error {
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			return err
		}
		os.RemoveAll(s.dir)
	}
	body, err := paperScenario(s.cfg.root, s.cfg.sizes.serviceScale, s.cfg.seed, s.cfg.sizes.serviceBenchmarks)
	if err != nil {
		return err
	}
	s.setups++
	s.dir = filepath.Join(s.cfg.work, fmt.Sprintf("service-cache-%d", s.setups))
	s.store, err = resultcache.Open(s.dir, resultcache.Options{})
	if err != nil {
		return err
	}
	s.body = body
	l := startService(s.store)
	res, err := s.request(l, nil, 0)
	if serr := l.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("cold submission: %w", err)
	}
	s.digests, s.report = res.digests, res.report
	return nil
}

// reply is one request's outputs and client-side timings.
type reply struct {
	digests                []string
	report                 []byte
	submit, wait, reportRT time.Duration
}

// request is one client request: POST /v1/runs, read /events until the run
// is terminal, GET /report.
func (s *svc) request(l *leakserved, tr *tracer, parent int) (reply, error) {
	var r reply
	base := l.ts.URL + "/v1/runs"

	start := time.Now()
	sp := tr.begin("POST /v1/runs", parent)
	resp, err := l.client.Post(base, "application/json", bytes.NewReader(s.body))
	if err != nil {
		return r, err
	}
	var st service.RunStatus
	err = decodeBody(resp, http.StatusAccepted, &st)
	tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	r.submit = time.Since(start)

	start = time.Now()
	sp = tr.begin("GET /events", parent)
	state, err := s.waitDone(l, base+"/"+st.ID+"/events")
	tr.end(sp)
	if err != nil {
		return r, err
	}
	if state != service.StateDone {
		return r, fmt.Errorf("run %s ended %s", st.ID, state)
	}
	r.wait = time.Since(start)

	start = time.Now()
	sp = tr.begin("GET /report", parent)
	resp, err = l.client.Get(base + "/" + st.ID + "/report")
	if err != nil {
		return r, err
	}
	r.report, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("report: HTTP %d: %s", resp.StatusCode, r.report)
	}
	if err != nil {
		return r, err
	}
	r.reportRT = time.Since(start)

	done, ok := l.srv.Status(st.ID)
	if !ok {
		return r, fmt.Errorf("run %s vanished", st.ID)
	}
	r.digests = done.ResultDigests
	return r, nil
}

// waitDone reads the NDJSON event stream to its end and returns the last
// state it reported.
func (s *svc) waitDone(l *leakserved, url string) (service.State, error) {
	resp, err := l.client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var state service.State
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		if ev.Type == "state" {
			state = ev.State
		}
	}
	return state, sc.Err()
}

// decodeBody checks the status code and decodes a JSON response body.
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
	}
	return json.Unmarshal(data, v)
}

// rep is one round: a fresh leakserved instance serving two closed-loop
// clients until it has answered sizes.serviceRound requests (or maxOps, when
// smaller and non-zero), or the deadline passes.  The rep's wall time runs
// from the first request to the last reply, excluding the instance's start
// and stop.
func (s *svc) rep(ph *phase, deadline time.Time, maxOps int, tr *tracer) error {
	if s.cycles == 0 {
		if err := s.servedCycles(); err != nil {
			return err
		}
	}
	quota := s.cfg.sizes.serviceRound
	if maxOps > 0 {
		quota = min(quota, maxOps)
	}
	st0 := s.store.Stats()
	l := startService(s.store)
	var heap0 uint64
	if tr != nil {
		heap0 = liveHeap()
	}
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		issued  int
		lat     []float64
		hardErr error
	)
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				stop := issued >= quota || hardErr != nil || (issued > 0 && !time.Now().Before(deadline))
				if !stop {
					issued++
				}
				mu.Unlock()
				if stop {
					return
				}
				t := time.Now()
				sp := tr.begin("request", 0)
				r, err := s.request(l, tr, sp)
				tr.end(sp)
				d := time.Since(t)
				// The reply is checked here, after its latency is taken, so
				// the report bytes are not held until the round ends.
				var bad error
				switch {
				case err != nil:
				case !slices.Equal(r.digests, s.digests):
					bad = fmt.Errorf("request result_digests %v differ from the cold submission's %v", r.digests, s.digests)
				case !bytes.Equal(r.report, s.report):
					bad = fmt.Errorf("request report (%d bytes) differs from the cold submission's (%d bytes)", len(r.report), len(s.report))
				}
				mu.Lock()
				if err != nil {
					hardErr = err
				} else {
					lat = append(lat, ms(d))
					if bad != nil {
						ph.fail(bad)
					}
					if tr != nil {
						s.submitMs = append(s.submitMs, ms(r.submit))
						s.waitMs = append(s.waitMs, ms(r.wait))
						s.reportMs = append(s.reportMs, ms(r.reportRT))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if tr != nil && len(lat) > 0 {
		heap1 := liveHeap()
		s.retainedKB = append(s.retainedKB, float64(heap1-min(heap0, heap1))/1024/float64(len(lat)))
	}
	if err := l.stop(); hardErr == nil {
		hardErr = err
	}
	if hardErr != nil {
		return hardErr
	}
	if tr != nil {
		st := s.store.Stats()
		s.hits += st.Hits - st0.Hits
		s.lookups += st.Hits + st.Misses - st0.Hits - st0.Misses
	}
	ph.lat = append(ph.lat, lat...)
	ph.reps = append(ph.reps, rep{ops: len(lat), wall: wall, cycles: s.cycles * float64(len(lat))})
	return nil
}

// liveHeap is the heap still in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// servedCycles sums the simulated cycles behind one request's results.
func (s *svc) servedCycles() error {
	return s.readBack(func(res core.Result, _ time.Duration) { s.cycles += float64(res.Cycles) })
}

// readBack reads every job of the scenario back from the store with
// Store.Get, calling fn with each result and the Get's wall time.
func (s *svc) readBack(fn func(core.Result, time.Duration)) error {
	named, err := expand(s.body)
	if err != nil {
		return err
	}
	for _, c := range named {
		d := c.Options.Digest()
		for _, k := range c.Options.Jobs() {
			start := time.Now()
			res, ok := s.store.Get(d, k)
			took := time.Since(start)
			if !ok {
				return fmt.Errorf("warmed store lacks %s %s", c.Name, k)
			}
			fn(res, took)
		}
	}
	return nil
}

// verify runs the scenario in-process with no cache: its report, rendered by
// experiment.WriteReport, and its digests must equal the cold submission's.
func (s *svc) verify() (int, []error) {
	sweeps, err := s.inProcess()
	if err != nil {
		return 1, []error{err}
	}
	var (
		buf     bytes.Buffer
		digests []string
	)
	for _, sw := range sweeps {
		if err := experiment.WriteReport(&buf, sw, "", false); err != nil {
			return 1, []error{err}
		}
		digests = append(digests, sw.Digest())
	}
	switch {
	case !slices.Equal(digests, s.digests):
		return 1, []error{fmt.Errorf("in-process digests %v differ from the service's %v", digests, s.digests)}
	case !bytes.Equal(buf.Bytes(), s.report):
		return 1, []error{fmt.Errorf("in-process report differs from the service's")}
	}
	return 1, nil
}

func (s *svc) inProcess() ([]*experiment.Sweep, error) {
	named, err := expand(s.body)
	if err != nil {
		return nil, err
	}
	if len(named) != 1 {
		// A multi-cell report carries per-cell banners the comparison above
		// does not render.
		return nil, fmt.Errorf("service scenario expands to %d cells, want 1", len(named))
	}
	return experiment.RunParallelAllContext(context.Background(), named, experiment.Parallelism{Workers: workers})
}

// layers adds the client-side request timings, the retained heap per run and
// the cache's hit share, then times what the service does per request from
// outside: Parse plus Expand, an options digest, report rendering, reopening
// the warmed store and reading every job back from it.
func (s *svc) layers(m metrics, tr *tracer) error {
	m["service.submit_ms_p50"] = median(s.submitMs)
	m["service.wait_ms_p50"] = median(s.waitMs)
	m["service.report_ms_p50"] = median(s.reportMs)
	m["service.retained_kb_per_run"] = median(s.retainedKB)
	m["resultcache.hit_frac"] = ratio(float64(s.hits), float64(s.lookups))

	sweeps, err := s.inProcess()
	if err != nil {
		return err
	}
	if err := clientCalls(m, tr, s.body, sweeps[0]); err != nil {
		return err
	}

	if err := s.store.Close(); err != nil {
		return err
	}
	start := time.Now()
	sp := tr.begin("resultcache.Open", 0)
	s.store, err = resultcache.Open(s.dir, resultcache.Options{})
	tr.end(sp)
	if err != nil {
		return err
	}
	m["resultcache.open_ms"] = ms(time.Since(start))
	m["resultcache.live_kb"] = float64(s.store.Stats().LiveBytes) / 1024

	var getUs []float64
	if err := s.readBack(func(_ core.Result, took time.Duration) { getUs = append(getUs, us(took)) }); err != nil {
		return err
	}
	m["resultcache.get_us_p50"] = median(getUs)
	return nil
}

func (s *svc) close() {
	if s.store != nil {
		s.store.Close()
	}
}
