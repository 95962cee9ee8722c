package trace_test

// Capture generates each stream on its own goroutine; these tests pin that
// the file it writes is byte-identical to a sequential round-robin drain,
// that a stream's panic surfaces on the caller's goroutine, and that a
// failing writer stops every producer.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// sequentialCapture is the reference encoding: the single-goroutine drain
// Capture replaced, one 256-entry NextBatch per live stream per round, with
// the per-core limit clipping the last batch.
func sequentialCapture(t *testing.T, gen workload.Generator, cores int, seed uint64, limit int) ([]byte, []uint64) {
	t.Helper()
	var out bytes.Buffer
	w, err := trace.NewWriter(&out, trace.Header{Cores: cores, LineBytes: 64, Seed: seed, Benchmark: gen.Name()},
		trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	streams := gen.Streams(cores, seed)
	counts := make([]uint64, cores)
	done := make([]bool, cores)
	buf := make([]workload.Entry, 256)
	for live := cores; live > 0; {
		for i, s := range streams {
			if done[i] {
				continue
			}
			room := buf
			if limit > 0 && uint64(limit)-counts[i] < uint64(len(room)) {
				room = room[:uint64(limit)-counts[i]]
			}
			n := 0
			if len(room) > 0 {
				n = s.NextBatch(room)
			}
			if n == 0 {
				done[i] = true
				live--
				continue
			}
			if err := w.AppendBatch(i, room[:n]); err != nil {
				t.Fatal(err)
			}
			counts[i] += uint64(n)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), counts
}

// captureBytes records gen through Capture into the same header.
func captureBytes(t *testing.T, gen workload.Generator, cores int, seed uint64, limit int) ([]byte, []uint64) {
	t.Helper()
	var out bytes.Buffer
	w, err := trace.NewWriter(&out, trace.Header{Cores: cores, LineBytes: 64, Seed: seed, Benchmark: gen.Name()},
		trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := trace.Capture(gen, cores, seed, w, trace.CaptureOptions{LimitPerCore: limit})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), counts
}

func TestCaptureMatchesSequentialEncoding(t *testing.T) {
	water, err := workload.ByName("WATER-NS", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	small, err := workload.ByName("WATER-NS", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	replayed := captureInMemory(t, small, 4, 3).Generator()
	cases := []struct {
		name  string
		gen   workload.Generator
		limit int
	}{
		{"WATER-NS", water, 0},
		{"replayed trace, limit 1000", replayed, 1000},
		{"replayed trace, limit 700", replayed, 700},
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			want, wantCounts := sequentialCapture(t, tc.gen, 4, 1, tc.limit)
			got, counts := captureBytes(t, tc.gen, 4, 1, tc.limit)
			if !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS %d, %s: Capture wrote %d bytes differing from the %d-byte sequential encoding",
					procs, tc.name, len(got), len(want))
			}
			if fmt.Sprint(counts) != fmt.Sprint(wantCounts) {
				t.Errorf("GOMAXPROCS %d, %s: counts %v, want %v", procs, tc.name, counts, wantCounts)
			}
		}
	}
}

// panicGen makes one core's stream panic after a few batches.
type panicGen struct {
	workload.Generator
	core, after int
}

var errStreamBug = errors.New("stream bug")

func (g panicGen) Streams(cores int, seed uint64) []workload.Stream {
	ss := g.Generator.Streams(cores, seed)
	ss[g.core] = &panicStream{Stream: ss[g.core], after: g.after}
	return ss
}

type panicStream struct {
	workload.Stream
	after int
}

func (s *panicStream) NextBatch(buf []workload.Entry) int {
	if s.after == 0 {
		panic(errStreamBug)
	}
	s.after--
	return s.Stream.NextBatch(buf)
}

// settleGoroutines waits until the goroutine count is back to base: Capture
// waits for its producers, which may still be returning from their last
// deferred call when it does.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Capture returned, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestCapturePanicOnCallerGoroutine pins that a stream's panic is re-raised
// by Capture itself: a recover on the calling goroutine sees the stream's
// panic value, and no producer is left running.
func TestCapturePanicOnCallerGoroutine(t *testing.T) {
	water, err := workload.ByName("WATER-NS", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	got := func() (v any) {
		defer func() { v = recover() }()
		w, err := trace.NewWriter(new(bytes.Buffer), trace.Header{Cores: 4}, trace.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = trace.Capture(panicGen{Generator: water, core: 2, after: 3}, 4, 1, w, trace.CaptureOptions{})
		t.Errorf("Capture over a panicking stream returned (error %v)", err)
		return nil
	}()
	if got != errStreamBug {
		t.Fatalf("recovered %v, want the stream's panic value", got)
	}
	settleGoroutines(t, base)
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestCaptureWriterFailureStopsProducers fails the writer mid-capture:
// Capture returns that error and every producer goroutine exits.
func TestCaptureWriterFailureStopsProducers(t *testing.T) {
	water, err := workload.ByName("WATER-NS", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	w, err := trace.NewWriter(&failWriter{n: 64 << 10}, trace.Header{Cores: 4}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Capture(water, 4, 1, w, trace.CaptureOptions{}); !errors.Is(err, errDiskFull) {
		t.Fatalf("Capture over a failing writer returned %v, want the write error", err)
	}
	settleGoroutines(t, base)
}
