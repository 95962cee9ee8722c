package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
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
		compressed := ch.flags&flagCompressed != 0
		if ch.flags&^uint8(flagCompressed) != 0 {
			return nil, corruptf("unknown chunk flags %#x", ch.flags)
		}
		if !compressed && ch.storedLen != ch.encLen {
			return nil, corruptf("uncompressed chunk stores %d bytes but encodes %d", ch.storedLen, ch.encLen)
		}
		if compressed && ch.storedLen > ch.encLen {
			return nil, corruptf("compressed chunk larger than its encoding (%d > %d)", ch.storedLen, ch.encLen)
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

// inflater bundles the reusable DEFLATE state of one replay cursor: the
// decompressor (which owns a 32 KB sliding window and two Huffman work
// areas — tens of kilobytes of setup), the bytes.Reader that feeds it, and
// the staging buffer chunks inflate into.  A sweep builds one Reader per
// core per simulation — thousands across a matrix — so the state lives in a
// sync.Pool: a Reader borrows an inflater at its first compressed chunk and
// hands it back when the trace is exhausted (or errors), and steady-state
// replay rebuilds nothing but flate's per-block dynamic-Huffman link
// tables, the known irreducible residual.
type inflater struct {
	rc  io.ReadCloser
	br  bytes.Reader
	buf []byte
}

var inflaterPool = sync.Pool{New: func() any { return new(inflater) }}

// release hands the inflater back to the pool and clears the borrower's
// reference, so double releases are no-ops.
func release(infp **inflater) {
	if *infp != nil {
		inflaterPool.Put(*infp)
		*infp = nil
	}
}

// Verify fully decodes every chunk — decompression, varint framing, entry
// counts — without retaining anything, so a verified File cannot produce a
// decode error during replay.  The result is cached.
func (f *File) Verify() error {
	if f.verified {
		return nil
	}
	var inf *inflater
	defer release(&inf)
	var buf [512]workload.Entry
	for i, ref := range f.chunks {
		payload, err := f.stageChunk(ref, &inf)
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

// stageChunk returns the decoded (decompressed) payload of a chunk.  The
// caller's inflater reference is populated from the pool at the first
// compressed chunk and reused thereafter; the returned payload aliases the
// inflater's staging buffer, so it stays valid only until the next
// stageChunk call or the inflater's release.
func (f *File) stageChunk(ref chunkRef, infp **inflater) ([]byte, error) {
	if faultinject.Enabled() {
		if err := faultinject.Hit(FaultPointChunk); err != nil {
			return nil, err
		}
	}
	stored := f.data[ref.payloadOff : ref.payloadOff+int(ref.hdr.storedLen)]
	if ref.hdr.flags&flagCompressed == 0 {
		return stored, nil
	}
	inf := *infp
	if inf == nil {
		inf = inflaterPool.Get().(*inflater)
		*infp = inf
	}
	inf.br.Reset(stored)
	if inf.rc == nil {
		inf.rc = flate.NewReader(&inf.br)
	} else if err := inf.rc.(flate.Resetter).Reset(&inf.br, nil); err != nil {
		return nil, corruptf("resetting inflater: %v", err)
	}
	if cap(inf.buf) < int(ref.hdr.encLen) {
		inf.buf = make([]byte, ref.hdr.encLen)
	}
	out := inf.buf[:ref.hdr.encLen]
	if _, err := io.ReadFull(inf.rc, out); err != nil {
		return nil, corruptf("inflating chunk: %v", err)
	}
	// The stream must end exactly at encLen bytes.
	var one [1]byte
	if n, _ := inf.rc.Read(one[:]); n != 0 {
		return nil, corruptf("compressed chunk inflates past its declared %d bytes", ref.hdr.encLen)
	}
	return out, nil
}

// Stream returns a fresh reader over core's entry sequence.  Cores beyond
// the recorded count yield an immediately exhausted stream, so a trace can
// be replayed on a system with fewer active cores than recorded slots.
func (f *File) Stream(core int) *Reader {
	return &Reader{f: f, core: core}
}

// Reader is one core's replay cursor.  It implements workload.Stream,
// decoding straight into the caller's batch buffer:
// the DEFLATE state is borrowed from a process-wide pool at the first
// compressed chunk (and returned at end of trace), so steady-state
// NextBatch runs allocation-free and building a Reader costs no
// decompressor setup.
type Reader struct {
	f      *File
	core   int
	ci     int // index of the next chunk to consider
	openCi int // index of the currently staged chunk, for error context

	payload   []byte // staged payload of the open chunk
	pos       int
	remaining int
	prevAddr  mem.Addr

	inf *inflater // pooled; non-nil only between first compressed chunk and end of trace

	err error
}

// Err returns the first decode error; NextBatch returns 0 after an error.
// A Reader over a Verify-ed File never sets it.
func (r *Reader) Err() error { return r.err }

// Core returns the stream's core index.
func (r *Reader) Core() int { return r.core }

// nextChunk stages the next chunk owned by this core; false at end of trace
// or on a decode error — either way the pooled DEFLATE state goes back for
// the next Reader (release is idempotent, so repeated calls after
// exhaustion are fine).
func (r *Reader) nextChunk() bool {
	for ; r.ci < len(r.f.chunks); r.ci++ {
		ref := r.f.chunks[r.ci]
		if int(ref.hdr.core) != r.core {
			continue
		}
		payload, err := r.f.stageChunk(ref, &r.inf)
		if err != nil {
			r.err = r.f.chunkErr(r.ci, err)
			r.payload = nil
			release(&r.inf)
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
	release(&r.inf)
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
			release(&r.inf)
			return n
		}
		r.pos, r.prevAddr = pos, prev
		r.remaining -= k
		if r.remaining == 0 && r.pos != len(r.payload) {
			r.err = r.f.chunkErr(r.openCi, corruptf("chunk payload has %d trailing bytes", len(r.payload)-r.pos))
			r.payload = nil
			release(&r.inf)
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

// sharedFiles caches opened-and-verified Files per path for OpenShared.
var sharedFiles = struct {
	mu sync.Mutex
	m  map[string]*File
}{m: map[string]*File{}}

// OpenShared returns a fully verified File for path, reading and verifying
// it at most once per process — a File is immutable and safe for
// concurrent readers, so one copy serves every simulation of a sweep.  The
// trace file is assumed not to change while the process runs (replay
// correctness depends on that anyway); failed opens are not cached.
func OpenShared(path string) (*File, error) {
	sharedFiles.mu.Lock()
	defer sharedFiles.mu.Unlock()
	if f, ok := sharedFiles.m[path]; ok {
		return f, nil
	}
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	if err := f.Verify(); err != nil {
		// Verify's chunk errors already carry the path (set by Open).
		return nil, err
	}
	sharedFiles.m[path] = f
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
