package trace

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"cmpleak/internal/faultinject"
	"cmpleak/internal/mem"
	"cmpleak/internal/workload"
)

// Fault-injection points of the trace layer (no-ops unless a test arms
// them): FaultPointOpen fires in Open before the file is read — a transient
// spec there simulates flaky host I/O for the sweep retry tests — and
// FaultPointChunk fires in stageChunk, failing replay mid-stream.
const (
	FaultPointOpen  = "trace/open"
	FaultPointChunk = "trace/chunk"
)

// File is an opened trace: the raw bytes plus a validated chunk index.
// Opening validates the framing (header, versions, every chunk header and
// payload bound) so that readers can stream with nothing but cheap decode
// checks left; Verify optionally proves the payloads themselves decode.
//
// A File is immutable and safe for concurrent readers; each Stream call
// returns an independent cursor starting at the beginning of its core's
// entry sequence.
type File struct {
	data     []byte
	hdr      Header
	chunks   []chunkRef
	perCore  []uint64 // entry totals per core, from the chunk index
	path     string   // source file, "" for in-memory traces; error context only
	verified bool
}

// chunkErr wraps a chunk-level failure with everything needed to find it:
// the source path (when the File came from one) and the chunk index.
func (f *File) chunkErr(i int, err error) error {
	if f.path != "" {
		return fmt.Errorf("%s: chunk %d: %w", f.path, i, err)
	}
	return fmt.Errorf("chunk %d: %w", i, err)
}

// chunkRef locates one validated chunk inside the file.
type chunkRef struct {
	payloadOff int
	hdr        chunkHeader
}

// Open reads and indexes the trace file at path.  A failed read (as opposed
// to a malformed file) comes back wrapping ErrIO and classified transient,
// so the sweep retry policy replays it.
func Open(path string) (*File, error) {
	if faultinject.Enabled() {
		if err := faultinject.Hit(FaultPointOpen); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &ioError{err: err}
	}
	f, err := New(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f.path = path
	return f, nil
}

// New indexes a trace held in memory.  It validates the magic, version,
// header block and every chunk frame; payload contents are validated lazily
// on decode (or eagerly by Verify).
func New(data []byte) (*File, error) {
	pos := len(Magic) + 2 + 4
	if len(data) < pos {
		return nil, corruptf("file shorter than the fixed header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, corruptf("bad magic %q", data[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint16(data[len(Magic):]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, reader supports %d", ErrVersion, v, Version)
	}
	hdrLen := binary.LittleEndian.Uint32(data[len(Magic)+2:])
	if hdrLen > maxHeaderLen {
		return nil, corruptf("header block %d bytes exceeds the %d limit", hdrLen, maxHeaderLen)
	}
	if uint32(len(data)-pos) < hdrLen {
		return nil, corruptf("header block overruns the file")
	}
	hdr, err := parseHeader(data[pos : pos+int(hdrLen)])
	if err != nil {
		return nil, err
	}
	pos += int(hdrLen)

	f := &File{data: data, hdr: hdr, perCore: make([]uint64, hdr.Cores)}
	for pos < len(data) {
		if len(data)-pos < chunkHeaderLen {
			return nil, corruptf("truncated chunk header at offset %d", pos)
		}
		ch := parseChunkHeader(data[pos : pos+chunkHeaderLen])
		pos += chunkHeaderLen
		if int(ch.core) >= hdr.Cores {
			return nil, corruptf("chunk core %d out of range [0,%d)", ch.core, hdr.Cores)
		}
		if ch.entries == 0 || ch.entries > maxChunkEntries {
			return nil, corruptf("chunk entry count %d out of range [1,%d]", ch.entries, maxChunkEntries)
		}
		if ch.encLen > maxChunkPayload {
			return nil, corruptf("chunk encoded length %d exceeds the %d limit", ch.encLen, maxChunkPayload)
		}
		if ch.flags != 0 {
			return nil, corruptf("chunk flags %#x at offset %d: compressed chunks are not supported, re-record the trace",
				ch.flags, pos-chunkHeaderLen)
		}
		if ch.storedLen != ch.encLen {
			return nil, corruptf("chunk stores %d bytes but encodes %d", ch.storedLen, ch.encLen)
		}
		if uint32(len(data)-pos) < ch.storedLen {
			return nil, corruptf("chunk payload overruns the file at offset %d", pos)
		}
		f.chunks = append(f.chunks, chunkRef{payloadOff: pos, hdr: ch})
		f.perCore[ch.core] += uint64(ch.entries)
		pos += int(ch.storedLen)
	}
	return f, nil
}

// Header returns the trace metadata.
func (f *File) Header() Header { return f.hdr }

// EntryCounts returns the per-core entry totals declared by the chunk index.
func (f *File) EntryCounts() []uint64 { return append([]uint64(nil), f.perCore...) }

// Verify fully decodes every chunk — varint framing, entry counts —
// without retaining anything, so a verified File cannot produce a decode
// error during replay.  The result is cached.
func (f *File) Verify() error {
	if f.verified {
		return nil
	}
	var buf [512]workload.Entry
	for i, ref := range f.chunks {
		payload, err := f.stageChunk(ref)
		if err != nil {
			return f.chunkErr(i, err)
		}
		pos, prev := 0, mem.Addr(0)
		remaining := int(ref.hdr.entries)
		for remaining > 0 {
			k := remaining
			if k > len(buf) {
				k = len(buf)
			}
			pos, prev, err = decodeEntries(payload, pos, prev, buf[:k])
			if err != nil {
				return f.chunkErr(i, err)
			}
			remaining -= k
		}
		if pos != int(ref.hdr.encLen) {
			return f.chunkErr(i,
				corruptf("payload encodes %d entries in %d bytes, header declares %d", ref.hdr.entries, pos, ref.hdr.encLen))
		}
	}
	f.verified = true
	return nil
}

// stageChunk returns the payload of a chunk, a slice of the file's bytes.
func (f *File) stageChunk(ref chunkRef) ([]byte, error) {
	if faultinject.Enabled() {
		if err := faultinject.Hit(FaultPointChunk); err != nil {
			return nil, err
		}
	}
	return f.data[ref.payloadOff : ref.payloadOff+int(ref.hdr.storedLen)], nil
}

// Stream returns a fresh reader over core's entry sequence.  Cores beyond
// the recorded count yield an immediately exhausted stream, so a trace can
// be replayed on a system with fewer active cores than recorded slots.
func (f *File) Stream(core int) *Reader {
	return &Reader{f: f, core: core}
}

// Reader is one core's replay cursor.  It implements workload.Stream,
// decoding straight from the file's bytes into the caller's batch buffer,
// so NextBatch runs allocation-free.
type Reader struct {
	f      *File
	core   int
	ci     int // index of the next chunk to consider
	openCi int // index of the currently staged chunk, for error context

	payload   []byte // staged payload of the open chunk
	pos       int
	remaining int
	prevAddr  mem.Addr

	err error
}

// Err returns the first decode error; NextBatch returns 0 after an error.
// A Reader over a Verify-ed File never sets it.
func (r *Reader) Err() error { return r.err }

// Core returns the stream's core index.
func (r *Reader) Core() int { return r.core }

// nextChunk stages the next chunk owned by this core; false at end of trace
// or on a staging error.
func (r *Reader) nextChunk() bool {
	for ; r.ci < len(r.f.chunks); r.ci++ {
		ref := r.f.chunks[r.ci]
		if int(ref.hdr.core) != r.core {
			continue
		}
		payload, err := r.f.stageChunk(ref)
		if err != nil {
			r.err = r.f.chunkErr(r.ci, err)
			r.payload = nil
			return false
		}
		r.payload = payload
		r.pos = 0
		r.remaining = int(ref.hdr.entries)
		r.prevAddr = 0
		r.openCi = r.ci
		r.ci++
		return true
	}
	r.payload = nil
	return false
}

// NextBatch implements workload.Stream.
func (r *Reader) NextBatch(buf []workload.Entry) int {
	if r.err != nil {
		return 0
	}
	n := 0
	for n < len(buf) {
		if r.remaining == 0 {
			if !r.nextChunk() {
				break
			}
		}
		k := r.remaining
		if k > len(buf)-n {
			k = len(buf) - n
		}
		pos, prev, err := decodeEntries(r.payload, r.pos, r.prevAddr, buf[n:n+k])
		if err != nil {
			r.err = r.f.chunkErr(r.openCi, err)
			r.payload = nil
			return n
		}
		r.pos, r.prevAddr = pos, prev
		r.remaining -= k
		if r.remaining == 0 && r.pos != len(r.payload) {
			r.err = r.f.chunkErr(r.openCi, corruptf("chunk payload has %d trailing bytes", len(r.payload)-r.pos))
			r.payload = nil
			return n
		}
		n += k
	}
	return n
}

// Generator wraps the file as a workload.Generator so trace-backed
// benchmarks slot into every place a synthetic one does (config validation,
// sweeps, the CLI).  Streams ignores the seed — a trace replays exactly
// what was recorded — which the generator declares via
// workload.SeedInvariant so sweeps can collapse their seed axis; and it
// only exists at the recorded core count, which it declares via
// workload.CheckCores so validation fails with a diagnostic instead of
// handing cores missing or silently empty streams.
func (f *File) Generator() workload.Generator { return &generator{f: f} }

// generator adapts a File to workload.Generator.
type generator struct{ f *File }

// Name implements workload.Generator with the recorded benchmark name.
func (g *generator) Name() string {
	if g.f.hdr.Benchmark != "" {
		return g.f.hdr.Benchmark
	}
	return "trace"
}

// CheckCores implements workload.CoreChecker: a trace replays exactly the
// per-core streams it recorded, so the requested count must equal the
// recorded one — more cores would run on silently empty streams, fewer
// would silently drop recorded work.  The error names the file and both
// counts, so a scenario surfacing it says which trace cannot run where.
func (g *generator) CheckCores(cores int) error {
	if cores != g.f.hdr.Cores {
		name := g.f.path
		if name == "" {
			name = "in-memory trace"
		}
		return fmt.Errorf("trace: %s records %d cores, cannot replay on %d",
			name, g.f.hdr.Cores, cores)
	}
	return nil
}

// SeedInvariant implements workload.SeedInvariant: replay ignores the seed.
func (g *generator) SeedInvariant() bool { return true }

// Streams implements workload.Generator.  Call workload.CheckCores first
// (config validation and scenario expansion do): cores beyond the recorded
// count would receive streams with no chunks to replay.
func (g *generator) Streams(cores int, _ uint64) []workload.Stream {
	out := make([]workload.Stream, cores)
	for i := range out {
		out[i] = g.f.Stream(i)
	}
	return out
}

// sharedFiles caches opened-and-verified Files per path for OpenShared,
// each with what os.Stat said of its file when it was read.
var sharedFiles = struct {
	mu sync.Mutex
	m  map[string]sharedFile
}{m: map[string]sharedFile{}}

type sharedFile struct {
	f    *File
	info os.FileInfo
}

// OpenShared returns a fully verified File for path, reading and verifying
// it once per version of the file — a File is immutable and safe for
// concurrent readers, so one copy serves every simulation of a sweep.
// Each call stats the path: a file that is gone fails as Open does, and a
// file replaced or rewritten since it was read (another inode, size or
// modification time) is read and verified again.  Failed opens are not
// cached.
func OpenShared(path string) (*File, error) {
	sharedFiles.mu.Lock()
	defer sharedFiles.mu.Unlock()
	if e, ok := sharedFiles.m[path]; ok {
		cur, err := os.Stat(path)
		if err == nil && os.SameFile(e.info, cur) && cur.Size() == e.info.Size() && cur.ModTime().Equal(e.info.ModTime()) {
			return e.f, nil
		}
		delete(sharedFiles.m, path)
	}
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	if err := f.Verify(); err != nil {
		// Verify's chunk errors already carry the path (set by Open).
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, &ioError{err: err}
	}
	sharedFiles.m[path] = sharedFile{f: f, info: info}
	return f, nil
}

func init() {
	// Register the "trace:<path>" benchmark scheme: recorded traces resolve
	// through workload.ByName exactly like synthetic benchmarks, so sweeps
	// and configs can name them directly.  The file is verified up front —
	// replay must never fail silently mid-run — and the scale factor is
	// ignored (a trace replays at its recorded length).  ByName runs at
	// least twice per simulation (config validation, then system build) and
	// once per job in a sweep, so resolution goes through the OpenShared
	// cache instead of re-reading the file each time.
	workload.RegisterScheme("trace", func(path string, _ float64) (workload.Generator, error) {
		f, err := OpenShared(path)
		if err != nil {
			return nil, err
		}
		return f.Generator(), nil
	})
}
