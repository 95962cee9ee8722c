package trace_test

// Error-path audit of the trace layer: host I/O failures classify as
// transient (the sweep retry policy replays them), corruption stays
// permanent, and every chunk-level error names the file and the chunk.

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/faultinject"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// TestOpenIOErrorIsTransient pins the classification contract: a failed
// read wraps ErrIO and reports Transient() true, while a corrupt file does
// neither.
func TestOpenIOErrorIsTransient(t *testing.T) {
	_, err := trace.Open(filepath.Join(t.TempDir(), "missing.trc"))
	if err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
	if !errors.Is(err, trace.ErrIO) {
		t.Fatalf("missing-file error %v does not wrap trace.ErrIO", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing-file error %v lost the underlying os error", err)
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Fatalf("I/O error %v is not classified transient", err)
	}

	// A corrupt file is permanent: no ErrIO, no Transient marker.
	path := filepath.Join(t.TempDir(), "garbage.trc")
	if err := os.WriteFile(path, []byte("not a trace at all........."), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = trace.Open(path)
	if err == nil {
		t.Fatal("Open accepted garbage")
	}
	if errors.Is(err, trace.ErrIO) || errors.As(err, &tr) {
		t.Fatalf("corrupt-file error %v classified as transient I/O", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt-file error %q does not name the file", err)
	}
}

// TestOpenFaultPoint proves the trace/open fault hook fires (transient, so
// the pool would retry it) and vanishes when disarmed.
func TestOpenFaultPoint(t *testing.T) {
	defer faultinject.Disarm()
	path := filepath.Join(t.TempDir(), "ok.trc")
	entries := []workload.Entry{{ComputeInstrs: 5}}
	data := writeTrace(t, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "unit"},
		trace.WriterOptions{}, [][]workload.Entry{entries})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
		{Point: trace.FaultPointOpen, Kind: faultinject.KindError, Times: 1, Transient: true, Msg: "flaky disk"},
	}}); err != nil {
		t.Fatal(err)
	}
	_, err := trace.Open(path)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed open returned %v, want injected fault", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("injected open error %q does not name the file", err)
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Fatalf("injected transient fault %v not classified transient", err)
	}
	// Times: 1 is exhausted — the retry succeeds.
	if _, err := trace.Open(path); err != nil {
		t.Fatalf("second open still failing: %v", err)
	}
}

// corruptTailTrace writes a single-chunk trace whose one-byte
// payload is overwritten with an invalid op kind (3): the framing stays
// valid, so Open succeeds and the corruption surfaces only on decode.
func corruptTailTrace(t *testing.T) string {
	t.Helper()
	entries := []workload.Entry{{ComputeInstrs: 5}}
	data := writeTrace(t, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "unit"},
		trace.WriterOptions{}, [][]workload.Entry{entries})
	data[len(data)-1] = 0x03 // head uvarint: compute 0, op 3 (invalid)
	path := filepath.Join(t.TempDir(), "corrupt-chunk.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVerifyErrorNamesFileAndChunk audits the eager path.
func TestVerifyErrorNamesFileAndChunk(t *testing.T) {
	path := corruptTailTrace(t)
	f, err := trace.Open(path)
	if err != nil {
		t.Fatalf("framing should be valid: %v", err)
	}
	err = f.Verify()
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("Verify returned %v, want wrapped ErrCorrupt", err)
	}
	for _, want := range []string{path, "chunk 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Verify error %q does not mention %q", err, want)
		}
	}
}

// TestReaderErrorNamesFileAndChunk audits the streaming path (NextBatch).
func TestReaderErrorNamesFileAndChunk(t *testing.T) {
	path := corruptTailTrace(t)
	f, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r := f.Stream(0)
	var buf [8]workload.Entry
	if n := r.NextBatch(buf[:]); n != 0 {
		t.Fatalf("corrupt chunk yielded %d entries", n)
	}
	err = r.Err()
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("reader error %v, want wrapped ErrCorrupt", err)
	}
	for _, want := range []string{path, "chunk 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("reader error %q does not mention %q", err, want)
		}
	}
}

// TestChunkFaultPoint proves the trace/chunk hook fails replay mid-stream
// with full context.
func TestChunkFaultPoint(t *testing.T) {
	defer faultinject.Disarm()
	entries := []workload.Entry{{ComputeInstrs: 5}, {ComputeInstrs: 7}}
	data := writeTrace(t, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "unit"},
		trace.WriterOptions{}, [][]workload.Entry{entries})
	path := filepath.Join(t.TempDir(), "faulted.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
		{Point: trace.FaultPointChunk, Kind: faultinject.KindError, Msg: "staged fault"},
	}}); err != nil {
		t.Fatal(err)
	}
	r := f.Stream(0)
	var buf [8]workload.Entry
	if n := r.NextBatch(buf[:]); n != 0 {
		t.Fatalf("faulted chunk yielded %d entries", n)
	}
	if err := r.Err(); !errors.Is(err, faultinject.ErrInjected) || !strings.Contains(err.Error(), path) {
		t.Fatalf("reader error %v, want injected fault naming %s", err, path)
	}
}

// TestReplayChunkFaultFailsRun pins that a chunk failing mid-replay fails
// the simulation instead of reading as a shorter stream: the run must
// return the injected error, still classified transient so the sweep pool
// retries it, and the same replay must match the live run once disarmed.
func TestReplayChunkFaultFailsRun(t *testing.T) {
	defer faultinject.Disarm()
	cfg := config.Default().WithBenchmark("FMM")
	cfg.WorkloadScale = 0.01
	gen, err := cfg.Workload()
	if err != nil {
		t.Fatal(err)
	}
	f := captureInMemory(t, gen, cfg.Cores, cfg.Seed)
	run := func() (core.Result, error) {
		s, err := core.NewSystemFrom(cfg, f.Generator())
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}

	if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
		{Point: trace.FaultPointChunk, Kind: faultinject.KindError, After: 2, Times: 1, Transient: true, Msg: "mid-run"},
	}}); err != nil {
		t.Fatal(err)
	}
	res, err := run()
	faultinject.Disarm()
	if err == nil {
		t.Fatalf("faulted replay succeeded with %d instructions", res.Instructions)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("run error %v lost the injected fault", err)
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Fatalf("run error %v lost its transient classification", err)
	}

	replayed, err := run()
	if err != nil {
		t.Fatal(err)
	}
	live, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, live) {
		t.Fatalf("replay diverged from the live run:\n  live:   %+v\n  replay: %+v", live, replayed)
	}
}

// TestCaptureFaultFailsCapture pins the same rule for recording: capturing
// a replayed trace whose chunk fails must return the error, not record the
// stream cut short.
func TestCaptureFaultFailsCapture(t *testing.T) {
	defer faultinject.Disarm()
	gen, err := workload.ByName("WATER-NS", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	src := captureInMemory(t, gen, 4, 1)
	if err := faultinject.Arm(faultinject.Plan{Specs: []faultinject.Spec{
		{Point: trace.FaultPointChunk, Kind: faultinject.KindError, After: 1, Times: 1, Msg: "mid-capture"},
	}}); err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(io.Discard, trace.Header{Cores: 4}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Capture(src.Generator(), 4, 1, w, trace.CaptureOptions{}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Capture over a failing stream returned %v, want the injected fault", err)
	}
}
