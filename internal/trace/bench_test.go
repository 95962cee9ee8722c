package trace_test

// Decode-throughput microbenchmarks: BenchmarkTraceReadBatch is the
// entries/sec of replaying a recorded file, directly comparable (same
// per-entry op accounting) to BenchmarkStreamNext / BenchmarkNextBatch in
// internal/workload — the live-generation rates a trace must at least
// match for replay to be worth it.  BenchmarkTraceWrite tracks the
// record-side encode rate, and BenchmarkCapture the whole recording path.

import (
	"bytes"
	"runtime"
	"testing"

	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// benchTrace builds an in-memory single-core WATER-NS trace.
func benchTrace(b *testing.B) *trace.File {
	b.Helper()
	gen, err := workload.ByName("WATER-NS", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	entries := workload.Drain(gen.Streams(1, 17)[0])
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "WATER-NS"}, trace.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AppendBatch(0, entries); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := trace.New(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("trace: %d entries in %d bytes (%.2f B/entry)",
		len(entries), buf.Len(), float64(buf.Len())/float64(len(entries)))
	return f
}

// BenchmarkTraceReadBatch measures batched decode; one op is one entry.
func BenchmarkTraceReadBatch(b *testing.B) {
	f := benchTrace(b)
	buf := make([]workload.Entry, 256)
	r := f.Stream(0)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	done := 0
	for done < b.N {
		n := r.NextBatch(buf)
		if n == 0 {
			if r.Err() != nil {
				b.Fatal(r.Err())
			}
			r = f.Stream(0)
			continue
		}
		for _, e := range buf[:n] {
			sink += uint64(e.Addr)
		}
		done += n
	}
	_ = sink
}

// BenchmarkTraceWrite measures the record-side encode rate (one op = one
// entry), chunk encoding included, file I/O excluded.
func BenchmarkTraceWrite(b *testing.B) {
	gen, err := workload.ByName("WATER-NS", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	entries := workload.Drain(gen.Streams(1, 17)[0])
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		buf.Reset()
		w, err := trace.NewWriter(&buf, trace.Header{Cores: 1, LineBytes: 64}, trace.WriterOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.AppendBatch(0, entries); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		done += len(entries)
	}
}

// BenchmarkCapture measures recording a 4-core WATER-NS trace through
// Capture, live generation on one goroutine per stream included, into an
// in-memory writer; one op is one entry.  allocs/capture and B/capture
// report the allocations of one whole recording, which allocs/op rounds
// away.
func BenchmarkCapture(b *testing.B) {
	gen, err := workload.ByName("WATER-NS", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done, captures := 0, 0
	for done < b.N {
		captures++
		buf.Reset()
		w, err := trace.NewWriter(&buf, trace.Header{Cores: 4, LineBytes: 64}, trace.WriterOptions{})
		if err != nil {
			b.Fatal(err)
		}
		counts, err := trace.Capture(gen, 4, 1, w, trace.CaptureOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		for _, n := range counts {
			done += int(n)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(captures), "allocs/capture")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(captures), "B/capture")
}
