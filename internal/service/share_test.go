package service

// Shared cell outputs: a run whose cell a live earlier run completed splices
// that run's output in — no store read, no simulation, no re-hash — and
// serves the same report and digests; only the cells nobody completed go
// through the pool, and failed or canceled runs publish nothing.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cmpleak/internal/experiment"
	"cmpleak/internal/faultinject"
	"cmpleak/internal/resultcache"
)

// newStorelessServer starts a real service with no result cache, so every
// job a run does not splice in is simulated.
func newStorelessServer(t *testing.T, exec runFunc) (*Server, *httptest.Server) {
	t.Helper()
	svc := newServer(Config{Workers: 2}, exec)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

// submitDone submits body, waits for the run to finish done and returns its
// status, its streamed events and its full report.
func submitDone(t *testing.T, ts *httptest.Server, body []byte) (RunStatus, []Event, string) {
	t.Helper()
	st, resp := postScenario(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", resp.StatusCode)
	}
	state, events := waitDone(t, ts, st.ID)
	final := getStatus(t, ts, st.ID)
	if state != StateDone {
		t.Fatalf("run %s finished %s (%s), want done", st.ID, state, final.Error)
	}
	report, code := getReport(t, ts, st.ID, "")
	if code != http.StatusOK {
		t.Fatalf("report status %d, want 200", code)
	}
	return final, events, report
}

// jobEvents returns the job events of a run's stream.
func jobEvents(events []Event) []Event {
	var jobs []Event
	for _, ev := range events {
		if ev.Type == "job" {
			jobs = append(jobs, ev)
		}
	}
	return jobs
}

func TestServiceSharesCellOutputs(t *testing.T) {
	t.Run("repeat reads no store and simulates nothing", func(t *testing.T) {
		svc, ts, store := newTestServer(t)
		body := paperScenarioReduced(t)
		first, _, report := submitDone(t, ts, body)

		// A fault that fails any simulated job proves nothing is simulated;
		// the store's hit count proves nothing is read from it.
		if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
			{Point: experiment.FaultPointJob, Kind: faultinject.KindError, Msg: "simulated during a shared run"},
		}}); err != nil {
			t.Fatal(err)
		}
		defer faultinject.Disarm()
		hits := store.Stats().Hits
		repeat, events, repeatReport := submitDone(t, ts, body)
		faultinject.Disarm()

		if got := store.Stats().Hits; got != hits {
			t.Errorf("store hits went %d -> %d: the repeat read the store", hits, got)
		}
		if repeat.Cached != 192 || repeat.JobsDone != 0 {
			t.Errorf("repeat: cached %d, simulated %d; want 192 and 0", repeat.Cached, repeat.JobsDone)
		}
		if repeatReport != report {
			t.Error("repeat report differs from the first run's")
		}
		if fmt.Sprint(repeat.ResultDigests) != fmt.Sprint(first.ResultDigests) {
			t.Errorf("repeat digests %v, first run's %v", repeat.ResultDigests, first.ResultDigests)
		}
		var states []State
		for _, ev := range events {
			states = append(states, ev.State)
		}
		if fmt.Sprint(states) != fmt.Sprint([]State{StateQueued, StateRunning, StateDone}) {
			t.Errorf("repeat events %+v, want queued, running, done", events)
		}
		svc.mu.Lock()
		shared := svc.runs[repeat.ID].outputs[0] == svc.runs[first.ID].outputs[0]
		svc.mu.Unlock()
		if !shared {
			t.Error("the repeat holds its own copy of the cell's output")
		}
		if repeat.QueuedAt.IsZero() || repeat.StartedAt.Before(repeat.QueuedAt) ||
			repeat.FinishedAt.Before(repeat.StartedAt) {
			t.Errorf("timestamps queued %v, started %v, finished %v: want set and in order",
				repeat.QueuedAt, repeat.StartedAt, repeat.FinishedAt)
		}
		metrics := getMetrics(t, ts)
		for _, want := range []string{
			"leakserved_cells_shared_total 1",
			"leakserved_cache_lookups_total 384",
			"leakserved_cache_hits_total 192",
			"leakserved_expansions_reused_total 1\n",
			"leakserved_runs_done_at_submit_total 1\n",
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("metrics missing %q:\n%s", want, metrics)
			}
		}
	})

	t.Run("only new cells enter the pool", func(t *testing.T) {
		_, ts := newStorelessServer(t, experiment.RunParallelAllContext)
		submitDone(t, ts, tinyScenario("mixed", 1))
		body := tinyScenario("mixed", 1, 2) // seed 1 shared, seed 2 new
		st, events, report := submitDone(t, ts, body)
		jobs := jobEvents(events)
		newJobs := st.Cells[1].Jobs
		if len(jobs) != newJobs || jobs[len(jobs)-1].Total != newJobs {
			t.Fatalf("%d job events, last %+v; want %d, each of total %d", len(jobs), jobs[len(jobs)-1], newJobs, newJobs)
		}
		if st.Cached != st.Cells[0].Jobs || st.JobsDone != newJobs {
			t.Errorf("cached %d, simulated %d; want %d and %d", st.Cached, st.JobsDone, st.Cells[0].Jobs, newJobs)
		}
		want, wantDigests := serialReference(t, body, "", false)
		if report != want || fmt.Sprint(st.ResultDigests) != fmt.Sprint(wantDigests) {
			t.Error("a run mixing shared and new cells differs from the serial reference")
		}

		// With no store, a repeat is served entirely by the shared cells.
		again, events, _ := submitDone(t, ts, body)
		if again.JobsDone != 0 || again.Cached != again.JobsTotal || len(jobEvents(events)) != 0 {
			t.Errorf("storeless repeat: cached %d of %d, simulated %d", again.Cached, again.JobsTotal, again.JobsDone)
		}
	})

	t.Run("canceled run publishes nothing", func(t *testing.T) {
		// The first batch is canceled as soon as one of its jobs finishes.
		var canceled atomic.Bool
		exec := func(ctx context.Context, cells []experiment.NamedOptions, p experiment.Parallelism) ([]*experiment.Sweep, error) {
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()
			if canceled.CompareAndSwap(false, true) {
				progress := p.Progress
				p.Progress = func(ev experiment.JobEvent) { progress(ev); cancel() }
			}
			return experiment.RunParallelAllContext(ctx, cells, p)
		}
		_, ts := newStorelessServer(t, exec)
		body := tinyScenario("canceled", 3)
		st, _ := postScenario(t, ts, body, "")
		if state, _ := waitDone(t, ts, st.ID); state != StateCanceled {
			t.Fatalf("first run finished %s, want canceled", state)
		}
		again, _, report := submitDone(t, ts, body)
		if again.JobsDone != again.JobsTotal {
			t.Errorf("resubmission simulated %d of %d jobs: a canceled run's cell was shared", again.JobsDone, again.JobsTotal)
		}
		want, wantDigests := serialReference(t, body, "", false)
		if report != want || fmt.Sprint(again.ResultDigests) != fmt.Sprint(wantDigests) {
			t.Error("resubmission after a canceled run differs from the serial reference")
		}
	})

	t.Run("dead entry is a miss", func(t *testing.T) {
		svc, ts := newStorelessServer(t, experiment.RunParallelAllContext)
		body := tinyScenario("dropped", 4)
		first, _, _ := submitDone(t, ts, body)
		// Drop the only run's hold on its output, as run eviction would: the
		// index alone must not keep the output alive.
		svc.mu.Lock()
		svc.runs[first.ID].outputs = nil
		svc.mu.Unlock()
		runtime.GC()
		svc.mu.Lock()
		live := svc.outputs[first.Cells[0].Digest].Value() != nil
		svc.mu.Unlock()
		if live {
			t.Fatal("the output index keeps an output no run holds alive")
		}
		again, _, _ := submitDone(t, ts, body)
		if again.JobsDone != again.JobsTotal {
			t.Errorf("after the output died, a resubmission simulated %d of %d jobs", again.JobsDone, again.JobsTotal)
		}
	})
}

// TestServiceSharedReportsConcurrent serves several runs that share one
// cell output to concurrent report readers under the race detector: the
// shared Sweep is read-only once the pool returns it.
func TestServiceSharedReportsConcurrent(t *testing.T) {
	_, ts, _ := newTestServer(t)
	body := tinyScenario("readers")
	var ids []string
	for range 3 {
		st, _, _ := submitDone(t, ts, body)
		ids = append(ids, st.ID)
	}
	queries := []struct {
		query, fig string
		csv        bool
	}{{"", "", false}, {"?fig=5a", "5a", false}, {"?csv=1", "", true}}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i], _ = serialReference(t, body, q.fig, q.csv)
	}
	var wg sync.WaitGroup
	for range 2 {
		for _, id := range ids {
			for i, q := range queries {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/report" + q.query)
					if err != nil {
						t.Error(err)
						return
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || string(got) != want[i] {
						t.Errorf("run %s report%s differs from the serial reference (%v)", id, q.query, err)
					}
				}()
			}
		}
	}
	wg.Wait()
}

// waitRun blocks until run id reaches a terminal state and returns it; a
// terminal run's fields no longer change.
func waitRun(s *Server, id string) *run {
	for {
		s.mu.Lock()
		r := s.runs[id]
		state, changed := r.state, r.changed
		s.mu.Unlock()
		if state == StateDone || state == StateFailed || state == StateCanceled {
			return r
		}
		<-changed
	}
}

func getMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// pruneEvery is how many runs the warm benchmarks submit between prunes.
const pruneEvery = 4096

// pruneRuns forgets every finished run but keep, whose outputs the later
// runs share, so a long benchmark's memory stays flat.
func pruneRuns(s *Server, keep string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.runs {
		if id != keep {
			delete(s.runs, id)
		}
	}
	s.order = append(s.order[:0], keep)
}

// BenchmarkWarmResubmit times a warm resubmission in process, without HTTP:
// Submit, wait for the run to finish, render its report.  A cold submission
// first warms the store.
func BenchmarkWarmResubmit(b *testing.B) {
	store, err := resultcache.Open(b.TempDir(), resultcache.Options{CompactMinBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	svc := New(Config{Workers: 2, Store: store})
	defer svc.Close()
	body := tinyScenario("warm")
	resubmit := func() string {
		st, err := svc.Submit(body, false)
		if err != nil {
			b.Fatal(err)
		}
		r := waitRun(svc, st.ID)
		if r.state != StateDone {
			b.Fatalf("run %s finished %s", st.ID, r.state)
		}
		if err := writeReport(io.Discard, r.cells, r.outputs, reportVariant{}); err != nil {
			b.Fatal(err)
		}
		return st.ID
	}
	cold := resubmit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resubmit()
		if i%pruneEvery == pruneEvery-1 {
			b.StopTimer()
			pruneRuns(svc, cold)
			b.StartTimer()
		}
	}
}

// BenchmarkWarmSubmit times Submit of a repeated paper body whose cell a
// live run completed, without HTTP: the expansion is memoised and the run
// is done when Submit returns.
func BenchmarkWarmSubmit(b *testing.B) {
	svc := newServer(Config{Workers: 2}, experiment.RunParallelAllContext)
	defer svc.Close()
	body := paperScenarioReduced(b)
	first, err := svc.Submit(body, false)
	if err != nil {
		b.Fatal(err)
	}
	if r := waitRun(svc, first.ID); r.state != StateDone {
		b.Fatalf("cold run finished %s", r.state)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := svc.Submit(body, false)
		if err != nil {
			b.Fatal(err)
		}
		if st.State != StateDone {
			b.Fatalf("repeat is %s, want done", st.State)
		}
		if i%pruneEvery == pruneEvery-1 {
			b.StopTimer()
			pruneRuns(svc, first.ID)
			b.StartTimer()
		}
	}
}
