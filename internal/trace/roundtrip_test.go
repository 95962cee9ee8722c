package trace_test

// Record → replay equivalence at adversarial geometries: batch sizes that
// are 1, prime, or straddle the 256-entry internal buffers (255, 257),
// appended through Writer.AppendBatch and replayed across chunk boundaries
// that never align with the batches (ChunkEntries 1, 3, 255, 257).  The
// aligned cases are covered by TestRoundTrip; any carry bug in the writer's
// chunk splitting or the reader's cross-chunk address-chain reset shows up
// as a diverging entry here.

import (
	"bytes"
	"testing"

	"cmpleak/internal/mem"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// syntheticEntries builds a deterministic pseudo-random entry sequence with
// full op-kind and address-delta variety (forward and backward jumps, runs
// of pure compute, repeated blocks).
func syntheticEntries(n int, seed uint64) []workload.Entry {
	out := make([]workload.Entry, n)
	x := seed | 1
	next := func() uint64 { // xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545F4914F6CDD1D
	}
	addr := mem.Addr(1 << 20)
	for i := range out {
		r := next()
		e := workload.Entry{ComputeInstrs: int(r % 37)}
		switch r % 5 {
		case 0: // pure compute
		case 1:
			e.Op = workload.Load
			addr += mem.Addr(next() % 4096)
			e.Addr = addr
		case 2:
			e.Op = workload.Store
			addr -= mem.Addr(next() % 4096)
			e.Addr = addr
		case 3: // far jump
			e.Op = workload.Load
			addr = mem.Addr(next())
			e.Addr = addr
		default: // same-block reuse
			e.Op = workload.Store
			e.Addr = addr
		}
		out[i] = e
	}
	return out
}

// appendBatched appends entries to core 0 of w in batches of the given size.
func appendBatched(t *testing.T, w *trace.Writer, entries []workload.Entry, batch int) {
	t.Helper()
	for off := 0; off < len(entries); off += batch {
		if err := w.AppendBatch(0, entries[off:min(off+batch, len(entries))]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecordReplayAdversarialBatchSizes(t *testing.T) {
	const n = 1500 // crosses every chunk size below several times
	want := syntheticEntries(n, 42)
	batchSizes := []int{1, 3, 255, 257}
	chunkSizes := []int{1, 3, 255, 257}

	for _, chunk := range chunkSizes {
		for _, recordBatch := range batchSizes {
			var buf bytes.Buffer
			w, err := trace.NewWriter(&buf,
				trace.Header{Cores: 1, LineBytes: 64, Benchmark: "synthetic"},
				trace.WriterOptions{ChunkEntries: chunk})
			if err != nil {
				t.Fatal(err)
			}
			appendBatched(t, w, want, recordBatch)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			f, err := trace.New(buf.Bytes())
			if err != nil {
				t.Fatalf("chunk %d batch %d: %v", chunk, recordBatch, err)
			}
			if err := f.Verify(); err != nil {
				t.Fatalf("chunk %d batch %d: %v", chunk, recordBatch, err)
			}
			// Replay at every adversarial batch size, including ones that
			// differ from the recording batch, so read batches and chunk
			// boundaries interleave in every phase relation.
			for _, replayBatch := range batchSizes {
				r := f.Stream(0)
				replayed := drainBatched(r, replayBatch)
				if r.Err() != nil {
					t.Fatalf("chunk %d record %d replay %d: reader error: %v", chunk, recordBatch, replayBatch, r.Err())
				}
				if len(replayed) != n {
					t.Fatalf("chunk %d record %d replay %d: %d entries, want %d",
						chunk, recordBatch, replayBatch, len(replayed), n)
				}
				for i := range replayed {
					if replayed[i] != want[i] {
						t.Fatalf("chunk %d record %d replay %d: entry %d is %+v, want %+v",
							chunk, recordBatch, replayBatch, i, replayed[i], want[i])
					}
				}
			}
		}
	}
}

// TestRecordReplayAcrossChunkBoundaryTail pins the two hand-picked
// geometries most likely to hide a carry bug: a batch that ends exactly one
// entry before a chunk boundary, and one that ends exactly one entry after
// it (the address chain restarts at every chunk; an off-by-one either
// drops the boundary entry or decodes it against the wrong previous
// address).
func TestRecordReplayAcrossChunkBoundaryTail(t *testing.T) {
	const chunk = 256
	want := syntheticEntries(3*chunk+1, 7) // final chunk holds exactly 1 entry
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf,
		trace.Header{Cores: 1, LineBytes: 64, Benchmark: "synthetic"},
		trace.WriterOptions{ChunkEntries: chunk})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{chunk - 1, chunk + 1} {
		buf.Reset()
		w, err = trace.NewWriter(&buf,
			trace.Header{Cores: 1, LineBytes: 64, Benchmark: "synthetic"},
			trace.WriterOptions{ChunkEntries: chunk})
		if err != nil {
			t.Fatal(err)
		}
		appendBatched(t, w, want, batch)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := trace.New(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		r := f.Stream(0)
		got := drainBatched(r, batch)
		if r.Err() != nil || len(got) != len(want) {
			t.Fatalf("batch %d: replayed %d entries (err %v), want %d", batch, len(got), r.Err(), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("batch %d: entry %d is %+v, want %+v", batch, i, got[i], want[i])
			}
		}
	}
}
