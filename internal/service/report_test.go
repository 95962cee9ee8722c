package service

// Rendered reports: a cell output renders each report variant once, on its
// first request, and every later request — from any run that shares the
// output, under either case of a figure name — writes the stored bytes,
// which equal experiment.WriteReport's.  Requests the handler refuses
// render nothing.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cmpleak/internal/config"
	"cmpleak/internal/experiment"
	"cmpleak/internal/scenario"
)

// renderKey identifies one variant of one output's report.
type renderKey struct {
	sweep *experiment.Sweep
	fig   string // lower-cased
	csv   bool
}

// renderLog counts renders through the renderReport seam.
type renderLog struct {
	mu     sync.Mutex
	counts map[renderKey]int
}

// countRenders swaps renderReport for a wrapper that counts each render and
// sleeps delay before it, until the test ends.  Call it before starting the
// test's server, so the server is closed before the seam is restored.
func countRenders(t *testing.T, delay time.Duration) *renderLog {
	t.Helper()
	l := &renderLog{counts: make(map[renderKey]int)}
	orig := renderReport
	renderReport = func(w io.Writer, s *experiment.Sweep, fig string, csv bool) error {
		l.mu.Lock()
		l.counts[renderKey{s, strings.ToLower(fig), csv}]++
		l.mu.Unlock()
		time.Sleep(delay)
		return orig(w, s, fig, csv)
	}
	t.Cleanup(func() { renderReport = orig })
	return l
}

// snapshot returns a copy of the counts and their total.
func (l *renderLog) snapshot() (map[renderKey]int, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	counts := make(map[renderKey]int, len(l.counts))
	total := 0
	for k, n := range l.counts {
		counts[k] = n
		total += n
	}
	return counts, total
}

// serialSweeps runs a scenario's cells in process, without the service.
func serialSweeps(t *testing.T, body []byte) []*experiment.Sweep {
	t.Helper()
	sc, err := scenario.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sc.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	sweeps, err := experiment.RunParallelAllContext(context.Background(), scenario.NamedOptions(cells), experiment.Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	return sweeps
}

// expectedReport renders what leaksweep prints for sweeps under the given
// cell names: banners (multi-cell markdown only) around WriteReport.
func expectedReport(t *testing.T, names []string, sweeps []*experiment.Sweep, fig string, csv bool) string {
	t.Helper()
	var b strings.Builder
	for i, sw := range sweeps {
		if len(sweeps) > 1 && !csv {
			fmt.Fprintf(&b, "== %s ==\n\n", names[i])
		}
		if err := experiment.WriteReport(&b, sw, fig, csv); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// reportFigs are the figure query values of every report variant, plus an
// upper-case spelling that must share its lower-case variant.
var reportFigs = []string{"", "3a", "3b", "4a", "4b", "5a", "5b", "6a", "6b", "5A"}

func TestReportVariantsRenderedOncePerOutput(t *testing.T) {
	renders := countRenders(t, 0)
	svc, ts := newStorelessServer(t, experiment.RunParallelAllContext)
	alpha, beta := tinyScenario("alpha", 1, 2), tinyScenario("beta", 1, 2)
	a, _, _ := submitDone(t, ts, alpha)
	b, _, _ := submitDone(t, ts, beta)
	if b.Cached != b.JobsTotal {
		t.Fatalf("run beta served %d of %d jobs without simulating; its cells should share alpha's outputs", b.Cached, b.JobsTotal)
	}
	ra, rb := waitRun(svc, a.ID), waitRun(svc, b.ID)
	for i := range ra.outputs {
		if ra.outputs[i] != rb.outputs[i] {
			t.Fatalf("cell %d: runs alpha and beta hold different outputs", i)
		}
		if ra.cells[i].Name == rb.cells[i].Name {
			t.Fatalf("cell %d: both runs name it %q; the test needs different names", i, ra.cells[i].Name)
		}
	}
	sweeps := serialSweeps(t, alpha)
	// submitDone fetched each run's full markdown report once already.
	for repeat := range 2 {
		for _, r := range []*run{ra, rb} {
			names := []string{r.cells[0].Name, r.cells[1].Name}
			for _, fig := range reportFigs {
				for _, csv := range []bool{false, true} {
					query := fmt.Sprintf("?fig=%s&csv=%t", fig, csv)
					got, code := getReport(t, ts, r.id, query)
					if code != http.StatusOK {
						t.Fatalf("run %s report%s = %d, want 200", r.id, query, code)
					}
					if want := expectedReport(t, names, sweeps, fig, csv); got != want {
						t.Errorf("pass %d: run %s report%s differs from WriteReport", repeat, r.id, query)
					}
				}
			}
		}
	}
	counts, total := renders.snapshot()
	const variants = 2 * (1 + experiment.NumFigures)
	if want := variants * len(ra.outputs); total != want || len(counts) != want {
		t.Errorf("%d renders of %d variants, want each of %d variants rendered once", total, len(counts), want)
	}
	for k, n := range counts {
		if n != 1 {
			t.Errorf("variant fig=%q csv=%t of sweep %p rendered %d times, want once", k.fig, k.csv, k.sweep, n)
		}
		if k.sweep != ra.outputs[0].sweep && k.sweep != ra.outputs[1].sweep {
			t.Errorf("rendered a sweep (%p) that is not one of the shared outputs", k.sweep)
		}
	}
}

// N concurrent first requests for one variant of a shared output, through
// three runs and both cases of the figure name, render it once; a slow
// render keeps the later requests waiting on the first.
func TestReportConcurrentFirstRequestsRenderOnce(t *testing.T) {
	renders := countRenders(t, 20*time.Millisecond)
	svc, ts := newStorelessServer(t, experiment.RunParallelAllContext)
	body := tinyScenario("concurrent")
	var ids []string
	for range 3 {
		st, resp := postScenario(t, ts, body, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST = %d, want 202", resp.StatusCode)
		}
		if r := waitRun(svc, st.ID); r.state != StateDone {
			t.Fatalf("run %s finished %s (%s)", st.ID, r.state, r.errMsg)
		}
		ids = append(ids, st.ID)
	}
	sweeps := serialSweeps(t, body)
	want := expectedReport(t, nil, sweeps, "5a", true)

	const n = 12
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			fig := []string{"5a", "5A"}[k%2]
			resp, err := http.Get(ts.URL + "/v1/runs/" + ids[k%len(ids)] + "/report?csv=1&fig=" + fig)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || string(got) != want {
				t.Errorf("request %d: status %d, report differs from WriteReport (%v)", k, resp.StatusCode, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if _, total := renders.snapshot(); total != 1 {
		t.Errorf("%d concurrent first requests rendered %d times, want once", n, total)
	}
}

// On a scenario without 4 MB (1 and 2 MB), ?fig=6a and ?fig=6b serve their
// sections of the full report, at the largest swept size.
func TestReportFigure6MatchesFullReport(t *testing.T) {
	_, ts := newStorelessServer(t, experiment.RunParallelAllContext)
	st, _, _ := submitDone(t, ts, tinyScenario("fig6"))
	for _, csv := range []bool{false, true} {
		full, code := getReport(t, ts, st.ID, fmt.Sprintf("?csv=%t", csv))
		if code != http.StatusOK {
			t.Fatalf("full report = %d, want 200", code)
		}
		// Figures 6a and 6b are the report's last two sections.
		marker := "\n### Figure "
		if csv {
			marker = "\nconfig,"
		}
		last := strings.LastIndex(full, marker) + 1
		prev := strings.LastIndex(full[:last-1], marker) + 1
		if prev <= 0 {
			t.Fatalf("csv=%t: full report has fewer than two figure sections", csv)
		}
		for fig, want := range map[string]string{"6a": full[prev:last], "6b": full[last:]} {
			got, code := getReport(t, ts, st.ID, fmt.Sprintf("?fig=%s&csv=%t", fig, csv))
			if code != http.StatusOK || got != want {
				t.Errorf("csv=%t: ?fig=%s = %d\n%s\nwant its section of the full report\n%s", csv, fig, code, got, want)
			}
			if !csv && !strings.Contains(got, "per benchmark (2MB)") {
				t.Errorf("?fig=%s does not name the largest swept size:\n%s", fig, got)
			}
		}
	}
}

func TestReportRefusalsRenderNothing(t *testing.T) {
	t.Run("unknown figure or csv value is 400", func(t *testing.T) {
		renders := countRenders(t, 0)
		_, ts := newStorelessServer(t, experiment.RunParallelAllContext)
		st, _, _ := submitDone(t, ts, tinyScenario("refuse"))
		_, before := renders.snapshot()
		for _, query := range []string{"?fig=9z", "?fig=3", "?fig=3a%20", "?fig=fig5a", "?fig=5a&csv=maybe"} {
			if _, code := getReport(t, ts, st.ID, query); code != http.StatusBadRequest {
				t.Errorf("report%s = %d, want 400", query, code)
			}
		}
		if _, after := renders.snapshot(); after != before {
			t.Errorf("refused requests rendered %d reports", after-before)
		}
	})
	t.Run("a run that is not done is 409", func(t *testing.T) {
		renders := countRenders(t, 0)
		exec := newBlockingExec()
		svc := newServer(Config{Workers: 1, QueueDepth: 4}, exec.exec)
		ts := httptest.NewServer(svc.Handler())
		defer func() { ts.Close(); svc.Close() }()
		running, _ := postScenario(t, ts, namedTiny("running"), "")
		waitForStarted(t, exec, 1)
		queued, _ := postScenario(t, ts, namedTiny("queued"), "")
		for _, id := range []string{running.ID, queued.ID} {
			if _, code := getReport(t, ts, id, ""); code != http.StatusConflict {
				t.Errorf("report of unfinished run %s = %d, want 409", id, code)
			}
		}
		close(exec.release)
		if _, total := renders.snapshot(); total != 0 {
			t.Errorf("refused requests rendered %d reports", total)
		}
	})
}

// BenchmarkWarmReport times GET /report of a done run through the service
// handler, without a network: every iteration after the first writes the
// stored rendering of the reduced paper report.
func BenchmarkWarmReport(b *testing.B) {
	svc := newServer(Config{Workers: 2}, experiment.RunParallelAllContext)
	defer svc.Close()
	st, err := svc.Submit(paperScenarioReduced(b), false)
	if err != nil {
		b.Fatal(err)
	}
	if r := waitRun(svc, st.ID); r.state != StateDone {
		b.Fatalf("run %s finished %s (%s)", st.ID, r.state, r.errMsg)
	}
	h := svc.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+st.ID+"/report", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET /report = %d: %s", rec.Code, rec.Body)
		}
	}
}
