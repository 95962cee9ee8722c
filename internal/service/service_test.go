package service

// End-to-end service tests: the paper scenario submitted over HTTP at
// reduced scale produces a report byte-identical to a serial in-process run
// (the "service serves exactly what leaksweep prints" contract), a warm
// resubmission is satisfied entirely from the result cache with zero
// simulator invocations (proved by arming a fault that fails any simulated
// job), priority scheduling is fair under aging, the error taxonomy maps to
// the right status codes, and concurrent clients hammering one daemon under
// -race neither corrupt state nor lose runs.

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
	"strings"
	"sync"
	"testing"
	"time"

	"cmpleak/internal/config"
	"cmpleak/internal/experiment"
	"cmpleak/internal/faultinject"
	"cmpleak/internal/resultcache"
	"cmpleak/internal/scenario"
)

// paperScenarioReduced loads scenarios/paper.json and rescales it so the
// full 192-job matrix runs in well under a second.
func paperScenarioReduced(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("../../scenarios/paper.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["scale"] = 0.002
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tinyScenario is a 4-job scenario for cheap tests.
func tinyScenario(name string, seeds ...uint64) []byte {
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	doc := map[string]any{
		"version":     1,
		"name":        name,
		"benchmarks":  []string{"FMM"},
		"l2_sizes_mb": []int{1, 2},
		"techniques":  []string{"decay:512K"},
		"seeds":       seeds,
		"scale":       0.003,
	}
	out, _ := json.Marshal(doc)
	return out
}

// newTestServer starts a real service over an httptest listener, backed by
// a fresh result cache directory.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *resultcache.Store) {
	t.Helper()
	store, err := resultcache.Open(t.TempDir(), resultcache.Options{CompactMinBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 4, QueueDepth: 8, Store: store})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		store.Close()
	})
	return svc, ts, store
}

func postScenario(t *testing.T, ts *httptest.Server, body []byte, query string) (RunStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

// waitDone streams /events until the run is terminal and returns the final
// state plus every streamed event.
func waitDone(t *testing.T, ts *httptest.Server, id string) (State, []Event) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q, want application/x-ndjson", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("event stream ended with no events")
	}
	last := events[len(events)-1]
	if last.Type != "state" {
		t.Fatalf("stream ended on %+v, want a terminal state event", last)
	}
	return last.State, events
}

func getStatus(t *testing.T, ts *httptest.Server, id string) RunStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getReport(t *testing.T, ts *httptest.Server, id, query string) (string, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/report" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.StatusCode
}

// serialReference runs the scenario's cells serially in-process and renders
// the report exactly as `leaksweep` prints it to stdout (which uses the
// same WriteReport renderer; leaksweep's own tests pin that equivalence).
func serialReference(t *testing.T, body []byte, fig string, csv bool) (string, []string) {
	t.Helper()
	sc, err := scenario.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sc.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sweeps, err := experiment.RunParallelAllContext(context.Background(), scenario.NamedOptions(cells), experiment.Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]string, len(cells))
	for i, sweep := range sweeps {
		digests[i] = sweep.Digest()
		if len(cells) > 1 && !csv {
			fmt.Fprintf(&buf, "== %s ==\n\n", cells[i].Name)
		}
		if err := experiment.WriteReport(&buf, sweep, fig, csv); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String(), digests
}

func TestServiceEndToEndPaperScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper matrix")
	}
	_, ts, store := newTestServer(t)
	body := paperScenarioReduced(t)

	st, resp := postScenario(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d, want 202", resp.StatusCode)
	}
	if st.JobsTotal != 192 || len(st.Cells) != 1 {
		t.Fatalf("paper scenario expanded to %d jobs in %d cells, want 192 in 1", st.JobsTotal, len(st.Cells))
	}

	state, events := waitDone(t, ts, st.ID)
	if state != StateDone {
		t.Fatalf("run finished %s, want done", state)
	}
	// The stream carries one job event per simulated job with a monotonically
	// increasing done count.
	jobEvents, lastDone := 0, 0
	for _, ev := range events {
		if ev.Type != "job" {
			continue
		}
		jobEvents++
		if ev.Done <= lastDone || ev.Total != 192 {
			t.Fatalf("job event out of order: done %d after %d (total %d)", ev.Done, lastDone, ev.Total)
		}
		lastDone = ev.Done
	}
	if jobEvents != 192 {
		t.Fatalf("streamed %d job events, want 192", jobEvents)
	}

	// Cold run: everything simulated, everything written through.
	final := getStatus(t, ts, st.ID)
	if final.Cached != 0 || final.JobsDone != 192 {
		t.Fatalf("cold run: cached %d, done %d; want 0 and 192", final.Cached, final.JobsDone)
	}
	if n := store.Stats().Entries; n != 192 {
		t.Fatalf("store holds %d entries after the cold run, want 192", n)
	}

	// The served report is byte-identical to a serial in-process run, and the
	// result digests pin the cells bit for bit.
	wantReport, wantDigests := serialReference(t, body, "", false)
	gotReport, code := getReport(t, ts, st.ID, "")
	if code != http.StatusOK {
		t.Fatalf("report status %d, want 200", code)
	}
	if gotReport != wantReport {
		t.Fatalf("service report differs from serial run (%d vs %d bytes)", len(gotReport), len(wantReport))
	}
	if len(final.ResultDigests) != 1 || final.ResultDigests[0] != wantDigests[0] {
		t.Fatalf("result digests %v, want %v", final.ResultDigests, wantDigests)
	}

	// Warm resubmission: with a fault armed that fails ANY simulated job, a
	// successful run proves the cache satisfied all 192 jobs with zero
	// simulator invocations.
	if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
		{Point: experiment.FaultPointJob, Kind: faultinject.KindError, Msg: "simulated during warm run"},
	}}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	st2, resp2 := postScenario(t, ts, body, "")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("warm POST = %d, want 202", resp2.StatusCode)
	}
	if state, _ := waitDone(t, ts, st2.ID); state != StateDone {
		warm := getStatus(t, ts, st2.ID)
		t.Fatalf("warm run finished %s (%s): a job was simulated instead of served from cache",
			state, warm.Error)
	}
	faultinject.Disarm()
	warm := getStatus(t, ts, st2.ID)
	if warm.Cached != 192 || warm.JobsDone != 0 {
		t.Fatalf("warm run: cached %d, simulated %d; want 192 and 0", warm.Cached, warm.JobsDone)
	}
	if warm.ResultDigests[0] != wantDigests[0] {
		t.Fatalf("warm digest %s != cold %s", warm.ResultDigests[0], wantDigests[0])
	}
	warmReport, _ := getReport(t, ts, st2.ID, "")
	if warmReport != wantReport {
		t.Fatal("warm report differs from the cold one")
	}

	// Metrics reflect the warm hits.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"leakserved_cache_hits_total 192",
		"leakserved_jobs_done_total 192",
		`leakserved_runs_total{state="done"} 2`,
		"leakserved_store_entries 192",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestServiceMultiCellReportMatchesSerial(t *testing.T) {
	_, ts, _ := newTestServer(t)
	body := tinyScenario("multi", 1, 2) // two cells -> banners in the report
	st, resp := postScenario(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", resp.StatusCode)
	}
	if len(st.Cells) != 2 {
		t.Fatalf("expanded to %d cells, want 2", len(st.Cells))
	}
	if state, _ := waitDone(t, ts, st.ID); state != StateDone {
		t.Fatalf("run finished %s, want done", state)
	}
	for _, tc := range []struct {
		query    string
		fig      string
		csv      bool
		wantType string
	}{
		{"", "", false, "text/markdown; charset=utf-8"},
		{"?csv=1", "", true, "text/csv; charset=utf-8"},
		{"?fig=5a", "5a", false, "text/markdown; charset=utf-8"},
		{"?fig=5a&csv=1", "5a", true, "text/csv; charset=utf-8"},
	} {
		want, _ := serialReference(t, body, tc.fig, tc.csv)
		resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/report" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != tc.wantType {
			t.Errorf("%s: content type %q, want %q", tc.query, ct, tc.wantType)
		}
		if string(got) != want {
			t.Errorf("report%s differs from serial reference", tc.query)
		}
	}
	if _, code := getReport(t, ts, st.ID, "?fig=9z"); code != http.StatusBadRequest {
		t.Errorf("unknown figure = %d, want 400", code)
	}
}

func TestServiceErrorTaxonomy(t *testing.T) {
	_, ts, _ := newTestServer(t)
	post := func(body, query string) (int, errorBody) {
		resp, err := http.Post(ts.URL+"/v1/runs"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}

	cases := []struct {
		name     string
		body     string
		wantCode int
		wantKind string
	}{
		{"malformed JSON", "{not json", http.StatusBadRequest, "syntax"},
		{"unknown field", `{"version":1,"bogus":true}`, http.StatusBadRequest, "syntax"},
		{"bad version", `{"version":99,"benchmarks":["FMM"],"l2_sizes_mb":[1],"techniques":["decay:512K"]}`,
			http.StatusBadRequest, "version"},
		{"unknown benchmark", `{"version":1,"benchmarks":["NOPE"],"l2_sizes_mb":[1],"techniques":["decay:512K"]}`,
			http.StatusBadRequest, "benchmark"},
		{"empty axis", `{"version":1,"benchmarks":[],"l2_sizes_mb":[1],"techniques":["decay:512K"]}`,
			http.StatusBadRequest, "empty_axis"},
		{"bad size", `{"version":1,"benchmarks":["FMM"],"l2_sizes_mb":[3],"techniques":["decay:512K"]}`,
			http.StatusBadRequest, "size"},
		{"bad technique", `{"version":1,"benchmarks":["FMM"],"l2_sizes_mb":[1],"techniques":["warp:9"]}`,
			http.StatusBadRequest, "technique"},
	}
	for _, tc := range cases {
		code, eb := post(tc.body, "")
		if code != tc.wantCode || eb.Kind != tc.wantKind {
			t.Errorf("%s: got %d kind %q, want %d kind %q (%s)",
				tc.name, code, eb.Kind, tc.wantCode, tc.wantKind, eb.Error)
		}
	}

	if code, _ := post(string(tinyScenario("p")), "?priority=urgent"); code != http.StatusBadRequest {
		t.Errorf("bad priority = %d, want 400", code)
	}

	// Oversized body -> 413.
	big := `{"version":1,"name":"` + strings.Repeat("x", defaultMaxBodyBytes) + `"}`
	if code, _ := post(big, ""); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", code)
	}

	// Unknown run -> 404 on every per-run endpoint.
	for _, path := range []string{"/v1/runs/r-999999", "/v1/runs/r-999999/events", "/v1/runs/r-999999/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// blockingExec is a runFunc stub whose runs block until released — for
// queue, priority and lifecycle tests that must not simulate anything.
type blockingExec struct {
	mu      sync.Mutex
	started []string // cell name of each run, in execution order
	release chan struct{}
}

func newBlockingExec() *blockingExec {
	return &blockingExec{release: make(chan struct{})}
}

func (b *blockingExec) exec(ctx context.Context, cells []experiment.NamedOptions, p experiment.Parallelism) ([]*experiment.Sweep, error) {
	b.mu.Lock()
	name := ""
	if len(cells) > 0 {
		name = cells[0].Name
	}
	b.started = append(b.started, name)
	b.mu.Unlock()
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, fmt.Errorf("canceled: %w", ctx.Err())
	}
	return make([]*experiment.Sweep, len(cells)), nil
}

func (b *blockingExec) order() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.started...)
}

func TestServiceQueueBoundsAndPriority(t *testing.T) {
	exec := newBlockingExec()
	svc := newServer(Config{Workers: 1, QueueDepth: 6}, exec.exec)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); close(exec.release); svc.Close() })

	submit := func(name, query string) int {
		_, resp := postScenario(t, ts, namedTiny(name), query)
		return resp.StatusCode
	}
	// The blocker occupies the executor; wait until it is running so queue
	// accounting below is deterministic.
	if code := submit("blocker", ""); code != http.StatusAccepted {
		t.Fatalf("blocker POST = %d", code)
	}
	waitForStarted(t, exec, 1)

	// One normal run first, then enough high-priority runs to trip aging.
	if code := submit("n1", ""); code != http.StatusAccepted {
		t.Fatal("n1 refused")
	}
	for i := 1; i <= 5; i++ {
		if code := submit(fmt.Sprintf("h%d", i), "?priority=high"); code != http.StatusAccepted {
			t.Fatalf("h%d refused", i)
		}
	}
	// Queue now holds 6 runs: the 7th submission is refused with 503.
	if code := submit("overflow", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("overflow POST = %d, want 503", code)
	}

	// Drain: release each run as it executes (the send blocks until the
	// executing run reaches its gate, so this is fully synchronous);
	// priority order is h1..h4 first, then aging lets n1 through, then h5.
	for i := 0; i < 7; i++ {
		exec.release <- struct{}{}
	}
	waitForStarted(t, exec, 7)
	// Expanded cell names carry the core-count/seed suffix; strip it.
	want := []string{"cell-blocker", "cell-h1", "cell-h2", "cell-h3", "cell-h4", "cell-n1", "cell-h5"}
	got := exec.order()
	for i := range got {
		got[i], _, _ = strings.Cut(got[i], "/")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
}

// namedTiny builds a tiny scenario whose single cell's name embeds the run
// label, so execution order is observable through the exec stub.
func namedTiny(name string) []byte {
	doc := map[string]any{
		"version":     1,
		"name":        "cell-" + name,
		"benchmarks":  []string{"FMM"},
		"l2_sizes_mb": []int{1},
		"techniques":  []string{"decay:512K"},
		"scale":       0.003,
	}
	out, _ := json.Marshal(doc)
	return out
}

func waitForStarted(t *testing.T, exec *blockingExec, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(exec.order()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("executor never started run %d (order %v)", n, exec.order())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServiceCancelAndShutdown(t *testing.T) {
	exec := newBlockingExec()
	store, err := resultcache.Open(t.TempDir(), resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := newServer(Config{Workers: 1, QueueDepth: 4, Store: store}, exec.exec)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); store.Close() })

	running, _ := postScenario(t, ts, namedTiny("running"), "")
	waitForStarted(t, exec, 1)
	queued, _ := postScenario(t, ts, namedTiny("queued"), "")

	// Cancel the queued run directly.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := getStatus(t, ts, queued.ID); st.State != StateCanceled {
		t.Fatalf("canceled queued run is %s", st.State)
	}

	// Shut down with a run still executing: Close cancels it and returns
	// only after the executor drains; the run reports canceled-resumable.
	closed := make(chan error)
	go func() { closed <- svc.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if st := getStatus(t, ts, running.ID); st.State != StateCanceled || !strings.Contains(st.Error, "resubmit") {
		t.Fatalf("interrupted run: state %s, error %q; want canceled with a resubmit hint", st.State, st.Error)
	}

	// Submissions after shutdown are refused.
	if _, resp := postScenario(t, ts, namedTiny("late"), ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown POST = %d, want 503", resp.StatusCode)
	}
}

// TestServiceConcurrentClients hammers one daemon from several goroutines —
// submissions, status polls, event streams and metrics — under the race
// detector.  Every accepted run must reach done with consistent counts.
func TestServiceConcurrentClients(t *testing.T) {
	_, ts, _ := newTestServer(t)
	const clients = 6
	var wg sync.WaitGroup
	ids := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Distinct seeds -> distinct cells, so runs do not trivially
			// collapse into cache hits of each other.
			body := tinyScenario(fmt.Sprintf("client%d", c), uint64(c+1))
			for {
				st, resp := postScenario(t, ts, body, "")
				switch resp.StatusCode {
				case http.StatusAccepted:
					ids <- st.ID
					return
				case http.StatusServiceUnavailable:
					time.Sleep(10 * time.Millisecond) // queue full: retry
				default:
					t.Errorf("client %d: POST = %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	// Background pollers exercising the read endpoints concurrently.
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 2; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/v1/runs", "/metrics", "/healthz"} {
					if resp, err := http.Get(ts.URL + path); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		state, _ := waitDone(t, ts, id)
		if state != StateDone {
			st := getStatus(t, ts, id)
			t.Fatalf("run %s finished %s (%s)", id, state, st.Error)
		}
		st := getStatus(t, ts, id)
		if st.Cached+st.JobsDone != st.JobsTotal {
			t.Fatalf("run %s: cached %d + done %d != total %d", id, st.Cached, st.JobsDone, st.JobsTotal)
		}
	}
	close(stop)
	pollers.Wait()
}

// TestServiceSSEFraming checks the Accept: text/event-stream variant and
// pins the event bytes of both framings: each SSE frame is "data: ", the
// event's json.Marshal form and a blank line, and the NDJSON stream of the
// same run is those JSON documents one per line.
func TestServiceSSEFraming(t *testing.T) {
	_, ts, _ := newTestServer(t)
	st, _ := postScenario(t, ts, tinyScenario("sse"), "")
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+st.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(body), "\n\n") {
		t.Fatalf("SSE stream %q does not end with a blank line", body)
	}
	var ndjson bytes.Buffer
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n\n"), "\n\n") {
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("SSE frame %q lacks the data: prefix", line)
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("SSE frame %q: %v", line, err)
		}
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if line != "data: "+string(data) {
			t.Fatalf("SSE frame %q, want \"data: \" + %s", line, data)
		}
		ndjson.Write(data)
		ndjson.WriteByte('\n')
	}
	resp, err = http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ndjson.Bytes()) {
		t.Fatalf("NDJSON stream of the finished run:\n%s\nwant:\n%s", got, ndjson.Bytes())
	}
}

// TestCellStatusJobsCountedAtSubmit checks the per-cell job counts a status
// read reports — recorded once when the run is built, not re-expanded on
// every read — against Options.Jobs(), for a multi-cell scenario with one
// cell sharded.
func TestCellStatusJobsCountedAtSubmit(t *testing.T) {
	sc, err := scenario.Parse(tinyScenario("counts", 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sc.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("scenario expanded to %d cells, want 3", len(cells))
	}
	cells[1].Options.ShardIndex, cells[1].Options.ShardCount = 1, 2
	r := &run{expansion: newExpansion(sc.Name, cells)}
	s := &Server{}
	st := s.statusLocked(r)
	total := 0
	for i, cs := range st.Cells {
		want := len(cells[i].Options.Jobs())
		if cs.Jobs != want {
			t.Errorf("cell %s: CellStatus.Jobs = %d, Options.Jobs() has %d", cs.Name, cs.Jobs, want)
		}
		total += want
	}
	if st.Cells[1].Jobs >= st.Cells[0].Jobs {
		t.Errorf("sharded cell reports %d jobs, the unsharded one %d: the shard filter was not counted",
			st.Cells[1].Jobs, st.Cells[0].Jobs)
	}
	if st.JobsTotal != total {
		t.Errorf("JobsTotal = %d, the cells hold %d", st.JobsTotal, total)
	}
}
