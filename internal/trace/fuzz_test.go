package trace_test

// FuzzReader drives the reader with arbitrary bytes: any input must either
// be rejected with a clean error or replay to exhaustion — never panic, and
// never loop unboundedly.  `make ci` runs a short -fuzz smoke over the
// cached corpus on every gate.

import (
	"bytes"
	"errors"
	"testing"

	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// fuzzSeed builds a small valid trace to seed the corpus.
func fuzzSeed() []byte {
	entries := []workload.Entry{
		{ComputeInstrs: 3, Op: workload.Load, Addr: 0x100040},
		{ComputeInstrs: 0, Op: workload.Store, Addr: 0x100080},
		{ComputeInstrs: 9, Op: workload.None},
		{ComputeInstrs: 1, Op: workload.Load, Addr: 0x200000},
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Cores: 2, LineBytes: 64, Seed: 1, Scale: 0.5, Benchmark: "seed",
	}, trace.WriterOptions{ChunkEntries: 3})
	if err != nil {
		panic(err)
	}
	for i, e := range entries {
		if err := w.Append(i%2, e); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDinImport drives the din text importer with arbitrary bytes: any
// input must either import into a trace that opens and verifies cleanly or
// be rejected with a classified error (ErrCorrupt for malformed text, ErrIO
// for transport failures) — never panic.
func FuzzDinImport(f *testing.F) {
	f.Add([]byte("2 400\n2 404\n0 1000\n1 0x2000 4\n2 408\n"))
	f.Add([]byte("# comment\n\n0 10\n"))
	f.Add([]byte("7 10\n"))
	f.Add([]byte("0 zz\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, trace.Header{Cores: 2, LineBytes: 64, Benchmark: "fuzz"}, trace.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ImportDin(bytes.NewReader(data), w); err != nil {
			if !errors.Is(err, trace.ErrCorrupt) && !errors.Is(err, trace.ErrIO) {
				t.Fatalf("ImportDin error %v is neither ErrCorrupt nor ErrIO", err)
			}
			return
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close after clean import: %v", err)
		}
		tf, err := trace.New(buf.Bytes())
		if err != nil {
			t.Fatalf("imported trace does not open: %v", err)
		}
		if err := tf.Verify(); err != nil {
			t.Fatalf("imported trace does not verify: %v", err)
		}
	})
}

// readerSeeds is FuzzReader's seed corpus: the valid seed, and the same
// trace with its first chunk's flags byte set (the bit that once marked a
// DEFLATE payload, which New refuses), each whole, halved, cut after the
// version and with a byte flipped; plus an empty file and a bare magic.
func readerSeeds() [][]byte {
	var seeds [][]byte
	seed := fuzzSeed()
	for _, seed := range [][]byte{seed, flagFirstChunk(seed)} {
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)/2] ^= 0xA5
		seeds = append(seeds, seed, seed[:len(seed)/2], seed[:len(trace.Magic)+2], flipped)
	}
	return append(seeds, []byte{}, []byte(trace.Magic))
}

func FuzzReader(f *testing.F) {
	for _, seed := range readerSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := trace.New(data)
		if err != nil {
			return
		}
		// Framing validated: both the eager verifier and the streaming
		// readers must handle whatever the payloads contain.
		tf.Verify()
		buf := make([]workload.Entry, 64)
		for c := 0; c < tf.Header().Cores; c++ {
			r := tf.Stream(c)
			for r.NextBatch(buf) != 0 {
			}
			r.Err()
		}
	})
}
