package service

// Admission shortcuts: a repeated body reuses its remembered expansion
// (never one that read a file or failed), and a run whose every cell a live
// run completed finishes inside Submit without entering a queue.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/experiment"
	"cmpleak/internal/scenario"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// placeholderExec never simulates: it returns empty sweeps, which publish
// no output, so no run of a server using it is ever done at submit.
func placeholderExec(ctx context.Context, cells []experiment.NamedOptions, p experiment.Parallelism) ([]*experiment.Sweep, error) {
	return make([]*experiment.Sweep, len(cells)), nil
}

// memoLen is the number of bodies svc's expansion memo holds.
func memoLen(svc *Server) int {
	svc.memo.mu.Lock()
	defer svc.memo.mu.Unlock()
	return len(svc.memo.byBody)
}

func TestMemoisedRunMatchesFreshExpansion(t *testing.T) {
	svc, ts := newStorelessServer(t, experiment.RunParallelAllContext)
	body := tinyScenario("memo", 1, 2)
	first, _, _ := submitDone(t, ts, body)
	// Let the first run's outputs die, so the repeat goes through the pool
	// on its memoised cells.
	svc.mu.Lock()
	svc.runs[first.ID].outputs = nil
	svc.mu.Unlock()
	runtime.GC()

	again, _, report := submitDone(t, ts, body)
	if again.JobsDone != again.JobsTotal {
		t.Fatalf("repeat simulated %d of %d jobs, want all: it did not go through the pool", again.JobsDone, again.JobsTotal)
	}
	want, wantDigests := serialReference(t, body, "", false)
	if report != want || fmt.Sprint(again.ResultDigests) != fmt.Sprint(wantDigests) {
		t.Error("a run on a memoised expansion differs from the serial reference")
	}
	if m := getMetrics(t, ts); !strings.Contains(m, "leakserved_expansions_reused_total 1\n") {
		t.Errorf("metrics do not count one reused expansion:\n%s", m)
	}

	sc, err := scenario.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sc.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	r := svc.runs[again.ID]
	shared := r.expansion == svc.runs[first.ID].expansion
	svc.mu.Unlock()
	if !shared {
		t.Error("the repeat built its own expansion")
	}
	// Nothing the pool or the report did may have written to the shared
	// expansion.
	if r.name != sc.Name || !reflect.DeepEqual(r.cells, cells) {
		t.Errorf("memoised cells after a pool run differ from a fresh expansion:\n got %+v\nwant %+v", r.cells, cells)
	}
	for i := range cells {
		if r.digests[i] != cells[i].Options.Digest() || r.cellJobs[i] != cells[i].Options.NumJobs() {
			t.Errorf("cell %d: memoised digest %s, %d jobs; fresh %s, %d jobs",
				i, r.digests[i], r.cellJobs[i], cells[i].Options.Digest(), cells[i].Options.NumJobs())
		}
	}
}

// writeTinyTrace records a one-entry trace of the given core count and
// returns its path.
func writeTinyTrace(t *testing.T, cores int) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Cores: cores, LineBytes: 64, Benchmark: "unit"}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(0, []workload.Entry{{ComputeInstrs: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("tiny%d.trc", cores))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// postKind posts body and returns the status code and the error kind.
func postKind(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if resp.StatusCode != http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, eb.Kind
}

// newHTTPServer serves svc over an httptest listener until the test ends.
func newHTTPServer(t *testing.T, svc *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts
}

func TestTraceBodyNeverMemoised(t *testing.T) {
	svc, ts := newStorelessServer(t, placeholderExec)
	// A two-element mix over the default four cores gives its trace two.
	bare, element := writeTinyTrace(t, 4), writeTinyTrace(t, 2)
	bodies := map[string]string{
		"bare": `{"version":1,"name":"bare","benchmarks":["trace:` + bare + `"],` +
			`"l2_sizes_mb":[1],"techniques":["decay:512K"]}`,
		"mix element": `{"version":2,"name":"mixed","mixes":[{"name":"m","cores":["FMM","trace:` + element + `"]}],` +
			`"l2_sizes_mb":[1],"techniques":["decay:512K"]}`,
	}
	for name, body := range bodies {
		if code, kind := postKind(t, ts.URL, []byte(body)); code != http.StatusAccepted {
			t.Fatalf("%s: POST = %d (%s), want 202", name, code, kind)
		}
	}
	if n := memoLen(svc); n != 0 {
		t.Fatalf("memo holds %d bodies after trace submissions, want 0", n)
	}
	for _, path := range []string{bare, element} {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	for name, body := range bodies {
		if code, kind := postKind(t, ts.URL, []byte(body)); code != http.StatusBadRequest || kind != "benchmark_file" {
			t.Errorf("%s: resubmission after the trace was deleted = %d %q, want 400 benchmark_file", name, code, kind)
		}
	}
}

func TestInvalidBodyNeverMemoised(t *testing.T) {
	svc, ts := newStorelessServer(t, placeholderExec)
	for _, tc := range []struct{ body, kind string }{
		{"{not json", "syntax"},
		{`{"version":1,"benchmarks":["NOPE"],"l2_sizes_mb":[1],"techniques":["decay:512K"]}`, "benchmark"},
	} {
		for i := range 3 {
			if code, kind := postKind(t, ts.URL, []byte(tc.body)); code != http.StatusBadRequest || kind != tc.kind {
				t.Errorf("submission %d of %q = %d %q, want 400 %q", i+1, tc.body, code, kind, tc.kind)
			}
		}
	}
	svc.memo.mu.Lock()
	n, reused := len(svc.memo.byBody), svc.memo.reused
	svc.memo.mu.Unlock()
	if n != 0 || reused != 0 {
		t.Errorf("memo holds %d bodies and reused %d after invalid submissions, want 0 and 0", n, reused)
	}
}

func TestMemoBoundedFIFO(t *testing.T) {
	svc := newServer(Config{Workers: 1, QueueDepth: 1000}, placeholderExec)
	defer svc.Close()
	for i := range memoBodies + 1 {
		if _, err := svc.Submit(namedTiny(fmt.Sprint(i)), false); err != nil {
			t.Fatal(err)
		}
	}
	if n := memoLen(svc); n != memoBodies {
		t.Fatalf("memo holds %d bodies after %d distinct submissions, want %d", n, memoBodies+1, memoBodies)
	}
	reused := func(body []byte) bool {
		svc.memo.mu.Lock()
		before := svc.memo.reused
		svc.memo.mu.Unlock()
		if _, err := svc.Submit(body, false); err != nil {
			t.Fatal(err)
		}
		svc.memo.mu.Lock()
		defer svc.memo.mu.Unlock()
		return svc.memo.reused > before
	}
	if !reused(namedTiny(fmt.Sprint(memoBodies))) {
		t.Error("the newest body was not remembered")
	}
	if reused(namedTiny("0")) {
		t.Error("the oldest body was not the one evicted")
	}
	if n := memoLen(svc); n != memoBodies {
		t.Errorf("memo holds %d bodies, want %d", n, memoBodies)
	}
}

func TestConcurrentSubmissionsShareOneExpansion(t *testing.T) {
	svc, ts := newStorelessServer(t, experiment.RunParallelAllContext)
	body := tinyScenario("together")
	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := svc.Submit(body, false)
			if err != nil {
				t.Error(err)
				return
			}
			ids[c] = st.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var digests string
	for _, id := range ids {
		r := waitRun(svc, id)
		st := getStatus(t, ts, id)
		if r.state != StateDone {
			t.Fatalf("run %s finished %s (%s)", id, r.state, st.Error)
		}
		if digests == "" {
			digests = fmt.Sprint(st.ResultDigests)
		} else if got := fmt.Sprint(st.ResultDigests); got != digests {
			t.Errorf("run %s digests %s, another run's %s", id, got, digests)
		}
	}
	svc.mu.Lock()
	x := svc.runs[ids[0]].expansion
	for _, id := range ids[1:] {
		if svc.runs[id].expansion != x {
			t.Errorf("run %s holds its own expansion of the shared body", id)
		}
	}
	svc.mu.Unlock()
	if n := memoLen(svc); n != 1 {
		t.Errorf("memo holds %d bodies, want 1", n)
	}
}

// gatedExec runs batches through the real pool, counting them; a batch
// whose first cell's name starts with "cell-block" first waits for release
// (or for cancellation).
type gatedExec struct {
	calls   atomic.Int32
	started atomic.Int32 // gated batches that reached the gate
	release chan struct{}
}

func (g *gatedExec) exec(ctx context.Context, cells []experiment.NamedOptions, p experiment.Parallelism) ([]*experiment.Sweep, error) {
	g.calls.Add(1)
	if strings.HasPrefix(cells[0].Name, "cell-block") {
		g.started.Add(1)
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return experiment.RunParallelAllContext(ctx, cells, p)
}

func TestRepeatFinishesAtSubmit(t *testing.T) {
	g := &gatedExec{release: make(chan struct{})}
	svc := newServer(Config{Workers: 2}, g.exec)
	ts := newHTTPServer(t, svc)
	body := tinyScenario("repeat")
	first, _, firstReport := submitDone(t, ts, body)
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("the first run took %d pool batches, want 1", n)
	}

	st, resp := postScenario(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repeat POST = %d, want 202", resp.StatusCode)
	}
	if st.State != StateDone || fmt.Sprint(st.ResultDigests) != fmt.Sprint(first.ResultDigests) {
		t.Fatalf("repeat POST body: state %s, digests %v; want done with %v", st.State, st.ResultDigests, first.ResultDigests)
	}
	if st.Cached != st.JobsTotal || st.JobsDone != 0 {
		t.Errorf("repeat: cached %d of %d, simulated %d", st.Cached, st.JobsTotal, st.JobsDone)
	}
	if n := g.calls.Load(); n != 1 {
		t.Errorf("the repeat called the executor (%d batches in all)", n)
	}
	if st.QueuedAt.IsZero() || st.StartedAt.Before(st.QueuedAt) || st.FinishedAt.Before(st.StartedAt) {
		t.Errorf("timestamps queued %v, started %v, finished %v: want set and in order", st.QueuedAt, st.StartedAt, st.FinishedAt)
	}
	state, events := waitDone(t, ts, st.ID)
	var states []State
	for _, ev := range events {
		states = append(states, ev.State)
	}
	if state != StateDone || fmt.Sprint(states) != fmt.Sprint([]State{StateQueued, StateRunning, StateDone}) {
		t.Errorf("repeat events %+v, want queued, running, done", events)
	}
	if report, _ := getReport(t, ts, st.ID, ""); report != firstReport {
		t.Error("the repeat's report differs from the first run's")
	}
	m := getMetrics(t, ts)
	for _, want := range []string{"leakserved_runs_done_at_submit_total 1\n", "leakserved_queue_depth 0\n"} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}

	// Close refuses even a run that would need no pool work.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(body, false); !errors.Is(err, errClosed) {
		t.Errorf("Submit after Close = %v, want errClosed", err)
	}
}

func TestRepeatAdmittedPastFullQueue(t *testing.T) {
	g := &gatedExec{release: make(chan struct{})}
	svc := newServer(Config{Workers: 2, QueueDepth: 2}, g.exec)
	ts := newHTTPServer(t, svc)
	t.Cleanup(func() { close(g.release) })
	body := tinyScenario("warm", 1, 2)
	first, _, _ := submitDone(t, ts, body)

	// A blocked run holds the executor and two more fill the queue.
	for i := range 3 {
		if _, err := svc.Submit(namedTiny(fmt.Sprintf("block%d", i)), false); err != nil {
			t.Fatalf("block%d: %v", i, err)
		}
		for i == 0 && g.started.Load() == 0 {
			runtime.Gosched()
		}
	}
	if _, err := svc.Submit(namedTiny("block3"), false); !errors.Is(err, errQueueFull) {
		t.Fatalf("fourth blocked submission = %v, want errQueueFull", err)
	}
	st, err := svc.Submit(body, true)
	if err != nil {
		t.Fatalf("repeat behind a full queue: %v", err)
	}
	if st.State != StateDone || fmt.Sprint(st.ResultDigests) != fmt.Sprint(first.ResultDigests) {
		t.Errorf("repeat behind a full queue: state %s, digests %v; want done with %v", st.State, st.ResultDigests, first.ResultDigests)
	}
	// A body that shares only some of its cells still needs the pool.
	if _, err := svc.Submit(tinyScenario("warm", 1, 2, 3), false); !errors.Is(err, errQueueFull) {
		t.Errorf("partly shared body behind a full queue = %v, want errQueueFull", err)
	}
}

func TestRunNeedingThePoolIsQueued(t *testing.T) {
	svc, ts := newStorelessServer(t, experiment.RunParallelAllContext)
	submitDone(t, ts, tinyScenario("some", 1))
	for _, body := range [][]byte{tinyScenario("fresh", 7), tinyScenario("some", 1, 2)} {
		st, err := svc.Submit(body, false)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued || st.ResultDigests != nil {
			t.Errorf("%s: Submit returned %s with digests %v, want queued without", body, st.State, st.ResultDigests)
		}
		if r := waitRun(svc, st.ID); r.state != StateDone {
			t.Errorf("%s finished %s", body, r.state)
		}
	}
	if m := getMetrics(t, ts); !strings.Contains(m, "leakserved_runs_done_at_submit_total 0\n") {
		t.Errorf("metrics count a run done at submit:\n%s", m)
	}
}

func TestDoneRunEventsHaveContentLength(t *testing.T) {
	_, ts := newStorelessServer(t, experiment.RunParallelAllContext)
	body := tinyScenario("length")
	submitDone(t, ts, body)
	st, _ := postScenario(t, ts, body, "")
	if st.State != StateDone {
		t.Fatalf("repeat is %s, want done", st.State)
	}
	for _, accept := range []string{"", "text/event-stream"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+st.ID+"/events", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength <= 0 || resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("Accept %q: Content-Length %d, transfer encoding %v, %d body bytes; want a Content-Length and no chunking",
				accept, resp.ContentLength, resp.TransferEncoding, len(data))
		}
	}
}
