package workload

import (
	"testing"

	"cmpleak/internal/mem"
)

// drainBatched consumes a Stream with the given batch size.
func drainBatched(s Stream, batch int) []Entry {
	buf := make([]Entry, batch)
	var out []Entry
	for {
		n := s.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// Every built-in generator must yield the same entry sequence one entry per
// call (batch size one) as at any larger batch size and through Drain — the
// suspension points of the lazy phase generator must be invisible.
func TestBatchStreamMatchesPerEntryStream(t *testing.T) {
	for _, name := range PaperBenchmarks() {
		t.Run(name, func(t *testing.T) {
			mk := func() Stream {
				g, err := ByName(name, 0.02)
				if err != nil {
					t.Fatal(err)
				}
				return g.Streams(2, 11)[1]
			}
			want := drainBatched(mk(), 1)
			if len(want) == 0 {
				t.Fatal("stream produced no entries")
			}
			if got := Drain(mk()); !entriesEqual(got, want) {
				t.Fatalf("Drain diverges from the per-entry sequence")
			}
			for _, batch := range []int{7, 64, 1024} {
				got := drainBatched(mk(), batch)
				if len(got) != len(want) {
					t.Fatalf("batch=%d produced %d entries, want %d", batch, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("batch=%d diverged at entry %d: %+v vs %+v", batch, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// AsBatchStream is the identity: it hands back the stream it was given,
// which then replays its entries unchanged.
func TestAsBatchStreamShim(t *testing.T) {
	entries := make([]Entry, 100)
	for i := range entries {
		entries[i] = Entry{ComputeInstrs: i, Op: Load, Addr: mem.Addr(0x1000 + i*64)}
	}
	s := NewSliceStream(entries)
	if AsBatchStream(s) != s {
		t.Fatal("AsBatchStream wrapped its stream")
	}
	if got := drainBatched(AsBatchStream(s), 17); !entriesEqual(got, entries) {
		t.Fatalf("stream replayed %d entries, want the %d it was built from", len(got), len(entries))
	}
}

// TestNextBatchAllocationFree guards the stream-ingest hot path (`make
// test-allocs`): refilling a batch buffer from a native generator stream
// must not allocate.
func TestNextBatchAllocationFree(t *testing.T) {
	g, err := ByName("WATER-NS", 1)
	if err != nil {
		t.Fatal(err)
	}
	bs := g.Streams(1, 3)[0]
	buf := make([]Entry, 256)
	if allocs := testing.AllocsPerRun(200, func() {
		if bs.NextBatch(buf) == 0 {
			t.Fatal("stream exhausted during the allocation guard")
		}
	}); allocs != 0 {
		t.Errorf("NextBatch allocates %.1f objects/op, want 0", allocs)
	}
}
