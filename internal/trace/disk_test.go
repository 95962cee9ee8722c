package trace_test

// A File from Open reads its chunks from the file as readers reach them.
// These tests pin what that must not change — Open and New of the same
// bytes index and replay identically — and what it adds: a descriptor to
// close, read errors mid-replay that stay transient, a retained heap the
// size of the index, and a file changed under a verified File caught
// instead of replayed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// errClass names which of the reader's error sentinels err wraps.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, trace.ErrCorrupt):
		return "ErrCorrupt"
	case errors.Is(err, trace.ErrVersion):
		return "ErrVersion"
	case errors.Is(err, trace.ErrIO):
		return "ErrIO"
	}
	return "unclassified"
}

// replayAll drains every recorded stream of f at an odd batch size and
// returns the entries and the error class of each.
func replayAll(f *trace.File) ([][]workload.Entry, []string) {
	var streams [][]workload.Entry
	var errs []string
	for c := range f.Header().Cores {
		r := f.Stream(c)
		streams = append(streams, drainBatched(r, 61))
		errs = append(errs, errClass(r.Err()))
	}
	return streams, errs
}

// TestOpenMatchesNew pins the one framing parser: for every valid,
// corrupt and truncated input of the fault tests and the reader fuzzer's
// seeds (and every prefix of the valid seed), Open of the bytes written to
// a file and New of the same bytes agree on the header, entry counts,
// replayed streams and Verify, or fail with errors of the same class.
func TestOpenMatchesNew(t *testing.T) {
	one := writeTrace(t, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "unit"},
		trace.WriterOptions{}, [][]workload.Entry{{{ComputeInstrs: 5}}})
	two := writeTrace(t, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "unit"},
		trace.WriterOptions{}, [][]workload.Entry{{{ComputeInstrs: 5}, {ComputeInstrs: 7}}})
	inputs := [][]byte{
		[]byte("not a trace at all........."),
		corruptTailData(t),
		one,
		two,
		legacyTrace,
	}
	inputs = append(inputs, readerSeeds()...)
	seed := fuzzSeed()
	for cut := range len(seed) {
		inputs = append(inputs, seed[:cut])
	}

	dir := t.TempDir()
	for i, data := range inputs {
		path := filepath.Join(dir, fmt.Sprintf("input-%d.trc", i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mf, merr := trace.New(data)
		df, derr := trace.Open(path)
		if errClass(merr) != errClass(derr) {
			t.Fatalf("input %d: New error %v, Open error %v", i, merr, derr)
		}
		if merr != nil {
			if !strings.Contains(derr.Error(), path) {
				t.Fatalf("input %d: Open error %q does not name the file", i, derr)
			}
			continue
		}
		if mf.Header() != df.Header() || !reflect.DeepEqual(mf.EntryCounts(), df.EntryCounts()) {
			t.Fatalf("input %d: New indexes %+v %v, Open %+v %v",
				i, mf.Header(), mf.EntryCounts(), df.Header(), df.EntryCounts())
		}
		mStreams, mErrs := replayAll(mf)
		dStreams, dErrs := replayAll(df)
		if !reflect.DeepEqual(mStreams, dStreams) || !reflect.DeepEqual(mErrs, dErrs) {
			t.Fatalf("input %d: New replays %v (%v), Open %v (%v)", i, mStreams, mErrs, dStreams, dErrs)
		}
		if m, d := errClass(mf.Verify()), errClass(df.Verify()); m != d {
			t.Fatalf("input %d: New verifies %s, Open %s", i, m, d)
		}
		if err := df.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadAfterClose pins Close: a Reader that stages a chunk from a closed
// File returns no entries and an error wrapping ErrIO.
func TestReadAfterClose(t *testing.T) {
	data := writeTrace(t, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "unit"},
		trace.WriterOptions{}, [][]workload.Entry{syntheticEntries(100, 1)})
	path := filepath.Join(t.TempDir(), "closed.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r := f.Stream(0)
	var buf [8]workload.Entry
	if n := r.NextBatch(buf[:]); n != 0 {
		t.Fatalf("a closed File yielded %d entries", n)
	}
	if !errors.Is(r.Err(), trace.ErrIO) {
		t.Fatalf("reading a closed File: Err() = %v, want ErrIO", r.Err())
	}
}

// chunkFrame is one chunk's owning core and payload offset, found by
// walking a trace's framing.
type chunkFrame struct {
	core       int
	payloadOff int
}

// chunkFrames walks the framing of a valid trace.
func chunkFrames(data []byte) []chunkFrame {
	pos := len(trace.Magic) + 2 + 4 + int(binary.LittleEndian.Uint32(data[len(trace.Magic)+2:]))
	var frames []chunkFrame
	for pos < len(data) {
		core := int(binary.LittleEndian.Uint32(data[pos:]))
		stored := int(binary.LittleEndian.Uint32(data[pos+12:]))
		pos += 17
		frames = append(frames, chunkFrame{core: core, payloadOff: pos})
		pos += stored
	}
	return frames
}

// recordReplayTrace records FMM at a small scale for cfg's cores and seed
// into a file, in short chunks so a replay stages many of them, and
// returns the path and the bytes.
func recordReplayTrace(t *testing.T, cfg config.System, name string) (string, []byte) {
	t.Helper()
	gen, err := cfg.Workload()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	w, closeTrace, err := trace.Create(path, trace.Header{
		Cores: cfg.Cores, LineBytes: 64, Seed: cfg.Seed, Scale: cfg.WorkloadScale, Benchmark: gen.Name(),
	}, trace.WriterOptions{ChunkEntries: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Capture(gen, cfg.Cores, cfg.Seed, w, trace.CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// smallReplayConfig is the live configuration the file-change tests record
// and replay.
func smallReplayConfig() config.System {
	cfg := config.Default().WithBenchmark("FMM")
	cfg.WorkloadScale = 0.01
	return cfg
}

// TestChangedTraceFileFailsReplay rewrites one payload byte of a verified,
// shared trace in place, keeping its size and modification time, so the
// stat OpenShared makes cannot see the change.  The checksum Verify
// recorded must: a fresh Reader that reaches the chunk fails with
// ErrCorrupt naming the file and the chunk, and a simulation of
// "trace:<path>" returns that error instead of a Result.
func TestChangedTraceFileFailsReplay(t *testing.T) {
	cfg := smallReplayConfig()
	path, data := recordReplayTrace(t, cfg, "changed.trc")
	f, err := trace.OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := chunkFrames(data)
	if len(frames) < 3 {
		t.Fatalf("trace has %d chunks, want several", len(frames))
	}
	const changed = 2
	fd, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(frames[changed].payloadOff)
	// Bit 2 of an entry head is bit 0 of its compute run: the changed
	// payload still decodes, so only the checksum can tell.
	if _, err := fd.WriteAt([]byte{data[off] ^ 0x04}, off); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	if again, err := trace.OpenShared(path); err != nil || again != f {
		t.Fatalf("OpenShared after an unseen change = %p, %v; want the cached %p", again, err, f)
	}

	r := f.Stream(frames[changed].core)
	workload.Drain(r)
	if !errors.Is(r.Err(), trace.ErrCorrupt) {
		t.Fatalf("replaying a changed chunk: Err() = %v, want ErrCorrupt", r.Err())
	}
	for _, want := range []string{path, "chunk 2"} {
		if !strings.Contains(r.Err().Error(), want) {
			t.Fatalf("changed-chunk error %q does not name %q", r.Err(), want)
		}
	}

	res, err := core.Run(cfg.WithBenchmark("trace:" + path))
	if !errors.Is(err, trace.ErrCorrupt) || !strings.Contains(err.Error(), "chunk 2") {
		t.Fatalf("simulating a changed trace = %d instructions, %v; want ErrCorrupt naming chunk 2", res.Instructions, err)
	}
}

// TestRenamedTraceFileKeepsReplaying replaces an open trace's file by
// rename: the File keeps reading the file it opened, so its replay is the
// same Result as before, while OpenShared opens the new file.
func TestRenamedTraceFileKeepsReplaying(t *testing.T) {
	cfg := smallReplayConfig()
	path, _ := recordReplayTrace(t, cfg, "renamed.trc")
	f, err := trace.OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	run := func() core.Result {
		t.Helper()
		s, err := core.NewSystemFrom(cfg, f.Generator())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before := run()

	other := cfg
	other.Seed++
	newPath, _ := recordReplayTrace(t, other, "replacement.trc")
	if err := os.Rename(newPath, path); err != nil {
		t.Fatal(err)
	}
	if after := run(); !reflect.DeepEqual(before, after) {
		t.Fatalf("replay changed after its file was replaced:\n  before: %+v\n  after:  %+v", before, after)
	}
	replaced, err := trace.OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	if replaced == f || replaced.Header().Seed != other.Seed {
		t.Fatalf("OpenShared after the rename served seed %d, want the new file's %d", replaced.Header().Seed, other.Seed)
	}
}

// failingReaderAt passes the first ok reads through and fails every later
// one with EIO, as a disk going bad in the middle of a replay would.
type failingReaderAt struct {
	io.ReaderAt
	ok atomic.Int64
}

func (r *failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if r.ok.Add(-1) < 0 {
		return 0, &os.PathError{Op: "read", Path: "trace", Err: syscall.EIO}
	}
	return r.ReaderAt.ReadAt(p, off)
}

// TestReadAtFailureIsTransient pins how a host read error mid-replay
// surfaces: the simulation fails with an error wrapping ErrIO and the
// underlying errno, classified transient so the sweep retry policy
// replays the job, and naming the file and the chunk.  Once reads
// succeed again the same File replays as the live run does.
func TestReadAtFailureIsTransient(t *testing.T) {
	cfg := smallReplayConfig()
	path, data := recordReplayTrace(t, cfg, "eio.trc")
	f, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	run := func() (core.Result, error) {
		s, err := core.NewSystemFrom(cfg, f.Generator())
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}

	failing := &failingReaderAt{}
	failing.ok.Store(int64(len(chunkFrames(data)) / 2))
	failing.ReaderAt = trace.SetSource(f, failing)
	res, err := run()
	trace.SetSource(f, failing.ReaderAt)
	if err == nil {
		t.Fatalf("a replay whose reads failed succeeded with %d instructions", res.Instructions)
	}
	if !errors.Is(err, trace.ErrIO) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("run error %v does not wrap ErrIO and EIO", err)
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Fatalf("run error %v is not classified transient", err)
	}
	for _, want := range []string{path, "chunk "} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("run error %q does not name %q", err, want)
		}
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
		t.Fatalf("replay after the failure diverged from the live run:\n  live:   %+v\n  replay: %+v", live, replayed)
	}
}

// TestOpenRetainedHeap guards what an open trace holds (`make
// test-allocs`): after Open and Verify of a trace of at least 4 MiB, the
// heap retains its chunk index — at most 64 bytes per chunk plus 64 KiB —
// not its bytes.
func TestOpenRetainedHeap(t *testing.T) {
	const cores = 4
	gen, err := workload.ByName("WATER-NS", 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "water.trc")
	w, closeTrace, err := trace.Create(path, trace.Header{Cores: cores, LineBytes: 64, Benchmark: gen.Name()},
		trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Capture(gen, cores, 1, w, trace.CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 4<<20 {
		t.Fatalf("trace is %d bytes, want at least 4 MiB", info.Size())
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)

	var chunks int64
	for _, n := range f.EntryCounts() {
		chunks += int64((n + trace.DefaultChunkEntries - 1) / trace.DefaultChunkEntries)
	}
	limit := 64*chunks + 64<<10
	t.Logf("Open+Verify of a %d-byte, %d-chunk trace retains %d heap bytes (limit %d)",
		info.Size(), chunks, retained, limit)
	if retained > limit {
		t.Errorf("an open trace retains %d heap bytes, want at most %d (64 B per chunk plus 64 KiB)", retained, limit)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
