package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cmpleak/internal/mem"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// benchEntries drains one core of a real benchmark at a reduced scale.
func benchEntries(t testing.TB, name string, cores int, core int, scale float64, seed uint64) []workload.Entry {
	t.Helper()
	gen, err := workload.ByName(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Drain(gen.Streams(cores, seed)[core])
}

// writeTrace encodes per-core entry slices into an in-memory trace.
func writeTrace(t testing.TB, hdr trace.Header, opts trace.WriterOptions, perCore [][]workload.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, hdr, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave cores in small slices, like a live recording would.
	const step = 300
	for off := 0; ; off += step {
		wrote := false
		for c, entries := range perCore {
			if off >= len(entries) {
				continue
			}
			end := off + step
			if end > len(entries) {
				end = len(entries)
			}
			if err := w.AppendBatch(c, entries[off:end]); err != nil {
				t.Fatal(err)
			}
			wrote = true
		}
		if !wrote {
			break
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainBatched consumes a Stream at a fixed batch size.
func drainBatched(bs workload.Stream, batch int) []workload.Entry {
	buf := make([]workload.Entry, batch)
	var out []workload.Entry
	for {
		n := bs.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// TestRoundTrip is the write→read property test: every batch size must
// reproduce the recorded sequence exactly across interleaved multi-core
// chunks.  Chunks are raw varint payloads, the only encoding.
func TestRoundTrip(t *testing.T) {
	const cores = 2
	perCore := make([][]workload.Entry, cores)
	for c := range perCore {
		perCore[c] = benchEntries(t, "FMM", cores, c, 0.02, 11)
		if len(perCore[c]) == 0 {
			t.Fatal("benchmark stream produced no entries")
		}
	}
	hdr := trace.Header{Cores: cores, LineBytes: 64, Seed: 11, Scale: 0.02, Benchmark: "FMM"}
	t.Run("raw", func(t *testing.T) {
		// A small chunk size forces many chunks per core, so batch
		// boundaries cross chunk boundaries in every combination.
		data := writeTrace(t, hdr, trace.WriterOptions{ChunkEntries: 512}, perCore)
		f, err := trace.New(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Verify(); err != nil {
			t.Fatal(err)
		}
		if got := f.Header(); got != hdr {
			t.Fatalf("header round-trip: got %+v, want %+v", got, hdr)
		}
		for c, want := range perCore {
			if got := f.EntryCounts()[c]; got != uint64(len(want)) {
				t.Fatalf("core %d: index declares %d entries, want %d", c, got, len(want))
			}
			for _, batch := range []int{1, 7, 64, 1024} {
				r := f.Stream(c)
				got := drainBatched(r, batch)
				if r.Err() != nil {
					t.Fatalf("core %d batch %d: reader error: %v", c, batch, r.Err())
				}
				if len(got) != len(want) {
					t.Fatalf("core %d batch %d: %d entries, want %d", c, batch, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("core %d batch %d: entry %d is %+v, want %+v", c, batch, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestRoundTripExtremeDeltas covers address deltas the synthetic benchmarks
// never produce: sign flips, full-range jumps, zero addresses.
func TestRoundTripExtremeDeltas(t *testing.T) {
	entries := []workload.Entry{
		{ComputeInstrs: 0, Op: workload.Load, Addr: 0},
		{ComputeInstrs: 1, Op: workload.Store, Addr: ^mem.Addr(0)},
		{ComputeInstrs: 1 << 30, Op: workload.None},
		{ComputeInstrs: 3, Op: workload.Load, Addr: 1},
		{ComputeInstrs: 0, Op: workload.None},
		{ComputeInstrs: 2, Op: workload.Store, Addr: 1 << 63},
	}
	hdr := trace.Header{Cores: 1, LineBytes: 64, Benchmark: "edge"}
	data := writeTrace(t, hdr, trace.WriterOptions{ChunkEntries: 2}, [][]workload.Entry{entries})
	f, err := trace.New(data)
	if err != nil {
		t.Fatal(err)
	}
	got := drainBatched(f.Stream(0), 3)
	if len(got) != len(entries) {
		t.Fatalf("%d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d is %+v, want %+v", i, got[i], entries[i])
		}
	}
}

// TestWriterRejectsInvalidInput pins the writer-side validation.
func TestWriterRejectsInvalidInput(t *testing.T) {
	var buf bytes.Buffer
	if _, err := trace.NewWriter(&buf, trace.Header{Cores: 0}, trace.WriterOptions{}); err == nil {
		t.Error("Cores=0 header accepted")
	}
	if _, err := trace.NewWriter(&buf, trace.Header{Cores: 2}, trace.WriterOptions{ChunkEntries: -1}); err == nil {
		t.Error("negative ChunkEntries accepted")
	}
	w, err := trace.NewWriter(&buf, trace.Header{Cores: 2}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, workload.Entry{}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := w.Append(-1, workload.Entry{}); err == nil {
		t.Error("negative core accepted")
	}
	w2, _ := trace.NewWriter(&buf, trace.Header{Cores: 1}, trace.WriterOptions{})
	if err := w2.Append(0, workload.Entry{ComputeInstrs: -1}); err == nil {
		t.Error("negative ComputeInstrs accepted")
	}
	w3, _ := trace.NewWriter(&buf, trace.Header{Cores: 1}, trace.WriterOptions{})
	big := math.MaxInt32
	big++ // exceeds the decoder's bound on 64-bit, wraps negative on 32-bit — rejected either way
	if err := w3.Append(0, workload.Entry{ComputeInstrs: big}); err == nil {
		t.Error("ComputeInstrs above MaxInt32 accepted; the reader would reject the file")
	}
	w4, _ := trace.NewWriter(&buf, trace.Header{Cores: 1}, trace.WriterOptions{})
	if err := w4.Append(0, workload.Entry{Op: workload.OpKind(7)}); err == nil {
		t.Error("unknown op kind accepted")
	}
}

// TestWriterBytesUnchanged pins the writer's output byte for byte: a small
// two-core trace with several interleaved chunks per core must hash to the
// value recorded when the writer last changed.  A trace recorded today must
// be the same file a trace recorded earlier was.
func TestWriterBytesUnchanged(t *testing.T) {
	hdr := trace.Header{Cores: 2, LineBytes: 64, Seed: 3, Scale: 0.25, Benchmark: "pin"}
	data := writeTrace(t, hdr, trace.WriterOptions{ChunkEntries: 256},
		[][]workload.Entry{syntheticEntries(1000, 1), syntheticEntries(700, 2)})
	const want = "548217eb4d49b9213dacd36a0a22b130bc4f2f83da52a8d1d57f9957584923e8"
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want || len(data) != 6926 {
		t.Fatalf("writer output changed: %d bytes, sha256 %s; want 6926 bytes, sha256 %s", len(data), got, want)
	}
}

// legacyTrace is a one-core, 64-entry trace whose single chunk an earlier
// writer stored DEFLATE-compressed (flags 0x01, 24 stored bytes for a
// 129-byte encoding).
var legacyTrace = []byte{
	0x43, 0x4d, 0x50, 0x4c, 0x54, 0x52, 0x43, 0x45, 0x01, 0x00, 0x13, 0x00,
	0x00, 0x00, 0x01, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x07, 0x64, 0x65, 0x66, 0x6c, 0x61, 0x74, 0x65, 0x00, 0x00, 0x00,
	0x00, 0x40, 0x00, 0x00, 0x00, 0x81, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00,
	0x00, 0x01, 0xc4, 0xc1, 0x31, 0x11, 0x00, 0x00, 0x00, 0x82, 0x40, 0x57,
	0x5a, 0x19, 0xcd, 0xe8, 0xc6, 0xe0, 0x9e, 0x95, 0x98, 0x1e, 0x00, 0x00,
	0xff, 0xff,
}

// flagFirstChunk returns a copy of a trace with bit 0 of its first chunk's
// flags byte set: past the fixed prefix and the header block, 16 bytes into
// the chunk header.
func flagFirstChunk(data []byte) []byte {
	out := append([]byte(nil), data...)
	hdrLen := int(binary.LittleEndian.Uint32(out[len(trace.Magic)+2:]))
	out[len(trace.Magic)+2+4+hdrLen+16] |= 1
	return out
}

// TestReaderRefusesCompressedChunk pins the one chunk encoding: a chunk
// with flag bit 0 set, whether an earlier writer's DEFLATE chunk or a raw
// chunk with the bit flipped on, fails New with ErrCorrupt and a message
// that says to re-record, and Open reports the same through the path.
func TestReaderRefusesCompressedChunk(t *testing.T) {
	raw := writeTrace(t, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "flag"},
		trace.WriterOptions{ChunkEntries: 4}, [][]workload.Entry{syntheticEntries(10, 3)})
	if _, err := trace.New(raw); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"legacy": legacyTrace, "flagged": flagFirstChunk(raw)} {
		_, err := trace.New(data)
		if !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("%s: New returned %v, want wrapped ErrCorrupt", name, err)
		}
		for _, want := range []string{"compressed chunks are not supported", "re-record"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not say %q", name, err, want)
			}
		}
		path := filepath.Join(t.TempDir(), name+".trc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Open(path); !errors.Is(err, trace.ErrCorrupt) || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: Open returned %v, want ErrCorrupt naming %s", name, err, path)
		}
	}
}

// TestReaderRejectsCorruptFiles exercises the clean-error contract on
// malformed inputs: truncations at every prefix length, a wrong version,
// bad magic, and single-byte flips must yield errors, never panics.
func TestReaderRejectsCorruptFiles(t *testing.T) {
	entries := benchEntries(t, "mpeg2dec", 1, 0, 0.01, 3)
	hdr := trace.Header{Cores: 1, LineBytes: 64, Seed: 3, Scale: 0.01, Benchmark: "mpeg2dec"}
	data := writeTrace(t, hdr, trace.WriterOptions{ChunkEntries: 256}, [][]workload.Entry{entries})

	// drain fully exercises a File whose framing validated.
	drain := func(f *trace.File) {
		for c := 0; c < f.Header().Cores; c++ {
			r := f.Stream(c)
			buf := make([]workload.Entry, 64)
			for r.NextBatch(buf) != 0 {
			}
		}
		f.Verify()
	}

	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(data); cut += 7 {
			f, err := trace.New(data[:cut])
			if err == nil {
				drain(f) // a truncation at a chunk boundary parses; it must still replay cleanly
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte("NOTTRACE"), data[8:]...)
		if _, err := trace.New(bad); !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[8] = 0xFF
		if _, err := trace.New(bad); !errors.Is(err, trace.ErrVersion) {
			t.Fatalf("wrong version: got %v, want ErrVersion", err)
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		for pos := 10; pos < len(data); pos += 11 {
			bad := append([]byte(nil), data...)
			bad[pos] ^= 0x40
			f, err := trace.New(bad)
			if err != nil {
				continue
			}
			drain(f) // flips that survive framing must fail (or decode) cleanly
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := trace.New(nil); err == nil {
			t.Fatal("empty file accepted")
		}
	})
}

// TestCaptureReplaysGenerator pins the Capture round trip: a generator's
// streams, captured with cores interleaved, replay as the identical
// per-core sequences.
func TestCaptureReplaysGenerator(t *testing.T) {
	const cores, scale, seed = 2, 0.02, 5
	gen, err := workload.ByName("VOLREND", scale)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Cores: cores, LineBytes: 64, Seed: seed, Scale: scale, Benchmark: "VOLREND"}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := trace.Capture(gen, cores, seed, w, trace.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := trace.New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for c := range cores {
		want := benchEntries(t, "VOLREND", cores, c, scale, seed)
		if counts[c] != uint64(len(want)) {
			t.Fatalf("core %d: Capture counted %d entries, want %d", c, counts[c], len(want))
		}
		replay := drainBatched(f.Stream(c), 97)
		if len(replay) != len(want) {
			t.Fatalf("core %d: captured file replays %d entries, want %d", c, len(replay), len(want))
		}
		for i := range replay {
			if replay[i] != want[i] {
				t.Fatalf("core %d: captured file diverged at entry %d", c, i)
			}
		}
	}
}

// TestCaptureLimit pins the per-core cap of Capture.
func TestCaptureLimit(t *testing.T) {
	gen, err := workload.ByName("WATER-NS", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Cores: 2, LineBytes: 64, Benchmark: "WATER-NS"}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := trace.Capture(gen, 2, 1, w, trace.CaptureOptions{LimitPerCore: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for c, n := range counts {
		if n != 1000 {
			t.Fatalf("core %d captured %d entries, want 1000", c, n)
		}
	}
	f, err := trace.New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for c, n := range f.EntryCounts() {
		if n != 1000 {
			t.Fatalf("core %d file holds %d entries, want 1000", c, n)
		}
	}
}

// TestGeneratorCheckCores pins the core-count validation in both
// directions: a trace generator accepts exactly the recorded core count and
// rejects more (which would run cores on silently empty streams) and fewer
// (which would silently drop recorded work), naming both counts in the
// diagnostic.  It also pins the seed-invariance declaration replay relies
// on for scenario seed-axis collapsing.
func TestGeneratorCheckCores(t *testing.T) {
	entries := benchEntries(t, "mpeg2enc", 1, 0, 0.01, 2)
	data := writeTrace(t, trace.Header{Cores: 2, LineBytes: 64, Benchmark: "mpeg2enc"},
		trace.WriterOptions{}, [][]workload.Entry{entries, entries})
	f, err := trace.New(data)
	if err != nil {
		t.Fatal(err)
	}
	gen := f.Generator()
	if err := workload.CheckCores(gen, 2); err != nil {
		t.Fatalf("recorded core count rejected: %v", err)
	}
	for _, cores := range []int{1, 3, 8} {
		err := workload.CheckCores(gen, cores)
		if err == nil {
			t.Fatalf("CheckCores(%d) accepted a 2-core trace", cores)
		}
		for _, want := range []string{"2", fmt.Sprint(cores)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("CheckCores(%d) error %q does not name %q", cores, err, want)
			}
		}
	}
	if !workload.IsSeedInvariant(gen) {
		t.Fatal("trace generator does not declare seed invariance")
	}
	// At the recorded count, replay still works stream for stream.
	streams := gen.Streams(2, 9)
	for c := range streams {
		if n := len(drainBatched(streams[c], 64)); n != len(entries) {
			t.Fatalf("core %d replays %d entries, want %d", c, n, len(entries))
		}
	}
}

// TestTraceSchemeByName pins the workload registration: a "trace:<path>"
// benchmark name resolves through workload.ByName like any other.
func TestTraceSchemeByName(t *testing.T) {
	entries := benchEntries(t, "FMM", 1, 0, 0.01, 4)
	data := writeTrace(t, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "FMM"},
		trace.WriterOptions{}, [][]workload.Entry{entries})
	path := t.TempDir() + "/fmm.trc"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.ByName("trace:"+path, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Name() != "FMM" {
		t.Fatalf("trace generator name %q, want the recorded benchmark", gen.Name())
	}
	got := workload.Drain(gen.Streams(1, 1)[0])
	if len(got) != len(entries) {
		t.Fatalf("scheme replay yields %d entries, want %d", len(got), len(entries))
	}
	if _, err := workload.ByName("trace:"+path+".missing", 1.0); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// TestOpenSharedFollowsTheFile checks that OpenShared's cache never
// outlives its file: a repeat open of an unchanged file returns the cached
// File, a rewritten file is read again, and a deleted one fails like Open.
func TestOpenSharedFollowsTheFile(t *testing.T) {
	hdr := trace.Header{Cores: 1, LineBytes: 64, Benchmark: "FMM"}
	path := filepath.Join(t.TempDir(), "shared.trc")
	write := func(seed uint64) {
		t.Helper()
		data := writeTrace(t, hdr, trace.WriterOptions{}, [][]workload.Entry{benchEntries(t, "FMM", 1, 0, 0.01, seed)})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	first, err := trace.OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := trace.OpenShared(path); err != nil || again != first {
		t.Fatalf("reopening an unchanged file = %p, %v; want the cached %p", again, err, first)
	}
	// A later modification time marks the rewrite even on a coarse clock.
	write(2)
	later := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
	rewritten, err := trace.OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	if rewritten == first {
		t.Fatal("a rewritten file was served from the cache")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.OpenShared(path); !errors.Is(err, trace.ErrIO) {
		t.Fatalf("opening a deleted file = %v, want an ErrIO failure", err)
	}
}

// TestTraceNextBatchAllocationFree guards the replay ingest hot path
// (`make test-allocs`): steady-state NextBatch must not allocate, whether
// chunks decode in place from an in-memory trace or are read from a
// verified file into the Reader's staging buffer.  Chunks hold fewer
// entries than a batch, so every guarded call stages two or three of
// them, of differing sizes: an allocation per staged chunk shows.
func TestTraceNextBatchAllocationFree(t *testing.T) {
	entries := benchEntries(t, "WATER-NS", 1, 0, 0.2, 3)
	data := writeTrace(t, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "WATER-NS"},
		trace.WriterOptions{ChunkEntries: 100}, [][]workload.Entry{entries})
	guard := func(t *testing.T, f *trace.File) {
		r := f.Stream(0)
		buf := make([]workload.Entry, 256)
		if r.NextBatch(buf) == 0 {
			t.Fatal("empty trace")
		}
		if allocs := testing.AllocsPerRun(150, func() {
			if r.NextBatch(buf) == 0 {
				t.Fatal("trace exhausted during the allocation guard")
			}
		}); allocs != 0 {
			t.Errorf("NextBatch allocates %.1f objects/op, want 0", allocs)
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
	t.Run("raw", func(t *testing.T) {
		f, err := trace.New(data)
		if err != nil {
			t.Fatal(err)
		}
		guard(t, f)
	})
	t.Run("disk", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "water.trc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := trace.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.Verify(); err != nil {
			t.Fatal(err)
		}
		guard(t, f)
	})
}

// TestConcurrentReplay drives many simultaneous Readers over one shared
// File — the parallel sweep runtime's access pattern — so `go test -race`
// exercises the shared chunk index, the payload bytes of an in-memory
// File and the ReadAt staging of a verified file under real contention,
// and every goroutine checks it decodes the exact recorded sequence.
func TestConcurrentReplay(t *testing.T) {
	entries := benchEntries(t, "FMM", 1, 0, 0.05, 9)
	data := writeTrace(t, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "FMM"},
		trace.WriterOptions{}, [][]workload.Entry{entries})
	replay := func(t *testing.T, f *trace.File) {
		const goroutines = 16
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				r := f.Stream(0)
				got := workload.Drain(r)
				if r.Err() != nil {
					errs <- r.Err()
					return
				}
				if len(got) != len(entries) {
					errs <- errors.New("short replay")
					return
				}
				for i := range got {
					if got[i] != entries[i] {
						errs <- errors.New("replayed entry diverged from the recording")
						return
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < goroutines; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("memory", func(t *testing.T) {
		f, err := trace.New(data)
		if err != nil {
			t.Fatal(err)
		}
		replay(t, f)
	})
	t.Run("disk", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "fmm.trc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := trace.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.Verify(); err != nil {
			t.Fatal(err)
		}
		replay(t, f)
	})
}
