package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

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

// File is an opened trace: where its bytes are, plus a validated chunk
// index.  A File from New holds the trace's bytes and stages each chunk as
// a slice of them.  A File from Open holds only the open file: each Reader
// reads one chunk at a time into its own buffer, so an open trace costs
// its index (about 28 bytes per chunk) plus one staged chunk per active
// stream, not the size of the file.  Indexing validates the framing
// (header, versions, every chunk header and payload bound) so that readers
// can stream with nothing but cheap decode checks left; Verify optionally
// proves the payloads themselves decode.
//
// A File is safe for concurrent readers; each Stream call returns an
// independent cursor starting at the beginning of its core's entry
// sequence.
type File struct {
	data       []byte      // the trace's bytes for New; nil for Open
	src        io.ReaderAt // the open trace file for Open; nil for New
	hdr        Header
	chunks     []chunkRef
	perCore    []uint64 // entry totals per core, from the chunk index
	maxPayload uint32   // the largest chunk payload, which sizes a staging buffer
	path       string   // source file, "" for in-memory traces; error context only

	// sums is set by a successful Verify.  For a File from Open it holds
	// the CRC32-C of every chunk payload, which each staging checks; for
	// one from New it is empty, since those bytes cannot change under it.
	sums atomic.Pointer[[]uint32]
}

// castagnoli is the CRC32-C table Verify records chunk checksums with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkErr wraps a chunk-level failure with everything needed to find it:
// the source path (when the File came from one) and the chunk index.
func (f *File) chunkErr(i int, err error) error {
	if f.path != "" {
		return fmt.Errorf("%s: chunk %d: %w", f.path, i, err)
	}
	return fmt.Errorf("chunk %d: %w", i, err)
}

// chunkRef locates one validated chunk: a payload of size bytes at off
// holding entries records of core's stream (its flags are 0 and its stored
// length equals its encoded length, or indexing refused it).
type chunkRef struct {
	off     int64
	core    uint32
	entries uint32
	size    uint32
}

// Open opens and indexes the trace file at path.  The File keeps the file
// open and reads chunk payloads from it as readers reach them; Close
// releases it.  A failed read (as opposed to a malformed file) comes back
// wrapping ErrIO and classified transient, so the sweep retry policy
// replays it.
func Open(path string) (*File, error) {
	f, _, err := openFile(path)
	return f, err
}

// openFile is Open, also returning what the open file's Stat said of it
// when it was indexed.
func openFile(path string) (*File, os.FileInfo, error) {
	if faultinject.Enabled() {
		if err := faultinject.Hit(FaultPointOpen); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	fd, err := os.Open(path)
	if err != nil {
		return nil, nil, &ioError{err: err}
	}
	info, err := fd.Stat()
	if err != nil {
		fd.Close()
		return nil, nil, &ioError{err: err}
	}
	f, err := index(fd, info.Size())
	if err != nil {
		fd.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	f.src, f.path = fd, path
	return f, info, nil
}

// New indexes a trace held in memory.  The File stages chunks as slices of
// data, which must not change while the File is in use.
func New(data []byte) (*File, error) {
	f, err := index(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	f.data = data
	return f, nil
}

// index validates the framing of a size-byte trace read through src — the
// magic, version, header block and every chunk frame — and returns the
// File's header and chunk index.  Payload contents are validated lazily on
// decode (or eagerly by Verify): index reads the headers only.
func index(src io.ReaderAt, size int64) (*File, error) {
	var fixed [len(Magic) + 2 + 4]byte
	pos := int64(len(fixed))
	if size < pos {
		return nil, corruptf("file shorter than the fixed header (%d bytes)", size)
	}
	if err := readAt(src, fixed[:], 0); err != nil {
		return nil, err
	}
	if string(fixed[:len(Magic)]) != Magic {
		return nil, corruptf("bad magic %q", fixed[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint16(fixed[len(Magic):]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, reader supports %d", ErrVersion, v, Version)
	}
	hdrLen := binary.LittleEndian.Uint32(fixed[len(Magic)+2:])
	if hdrLen > maxHeaderLen {
		return nil, corruptf("header block %d bytes exceeds the %d limit", hdrLen, maxHeaderLen)
	}
	if size-pos < int64(hdrLen) {
		return nil, corruptf("header block overruns the file")
	}
	block := make([]byte, hdrLen)
	if err := readAt(src, block, pos); err != nil {
		return nil, err
	}
	hdr, err := parseHeader(block)
	if err != nil {
		return nil, err
	}
	pos += int64(hdrLen)

	f := &File{hdr: hdr, perCore: make([]uint64, hdr.Cores)}
	var b [chunkHeaderLen]byte
	for pos < size {
		if size-pos < chunkHeaderLen {
			return nil, corruptf("truncated chunk header at offset %d", pos)
		}
		if err := readAt(src, b[:], pos); err != nil {
			return nil, err
		}
		ch := parseChunkHeader(b[:])
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
		if size-pos < int64(ch.storedLen) {
			return nil, corruptf("chunk payload overruns the file at offset %d", pos)
		}
		f.chunks = append(f.chunks, chunkRef{off: pos, core: ch.core, entries: ch.entries, size: ch.storedLen})
		f.perCore[ch.core] += uint64(ch.entries)
		f.maxPayload = max(f.maxPayload, ch.storedLen)
		pos += int64(ch.storedLen)
	}
	return f, nil
}

// readAt fills p from src at off.  A read that ends early means the file
// is shorter than when it was indexed, so it changed: ErrCorrupt.  Any
// other failure is the host's, so it wraps ErrIO.
func readAt(src io.ReaderAt, p []byte, off int64) error {
	n, err := src.ReadAt(p, off)
	switch {
	case n == len(p):
		return nil
	case errors.Is(err, io.EOF):
		return corruptf("file ends at offset %d, shorter than when it was opened", off+int64(n))
	default:
		return &ioError{err: err}
	}
}

// Close releases the open file of a File from Open: a Reader fails with
// ErrIO at the next chunk it stages.  It does nothing for a File from New.
func (f *File) Close() error {
	if c, ok := f.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Header returns the trace metadata.
func (f *File) Header() Header { return f.hdr }

// EntryCounts returns the per-core entry totals declared by the chunk index.
func (f *File) EntryCounts() []uint64 { return append([]uint64(nil), f.perCore...) }

// Verify fully decodes every chunk — varint framing, entry counts —
// reading each once and retaining nothing but, for a File from Open, a
// CRC32-C per chunk.  After it succeeds a Reader cannot hit a decode
// error: its chunks are checked against those checksums as they are
// staged, so a file changed in place since Verify fails with ErrCorrupt
// instead of replaying different entries.  The result is cached.
func (f *File) Verify() error {
	if f.sums.Load() != nil {
		return nil
	}
	var buf [512]workload.Entry
	var stage []byte
	sums := []uint32{}
	if f.src != nil {
		stage = make([]byte, f.maxPayload)
		sums = make([]uint32, len(f.chunks))
	}
	for i, ref := range f.chunks {
		payload, err := f.stageChunk(i, stage)
		if err != nil {
			return f.chunkErr(i, err)
		}
		pos, prev := 0, mem.Addr(0)
		remaining := int(ref.entries)
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
		if pos != int(ref.size) {
			return f.chunkErr(i,
				corruptf("payload encodes %d entries in %d bytes, header declares %d", ref.entries, pos, ref.size))
		}
		if f.src != nil {
			sums[i] = crc32.Checksum(payload, castagnoli)
		}
	}
	f.sums.Store(&sums)
	return nil
}

// stageChunk returns the payload of chunk i: a slice of the trace's bytes
// for a File from New, else the chunk read into stage (which holds at least
// maxPayload bytes) and, once Verify has recorded its checksum, checked
// against it.
func (f *File) stageChunk(i int, stage []byte) ([]byte, error) {
	if faultinject.Enabled() {
		if err := faultinject.Hit(FaultPointChunk); err != nil {
			return nil, err
		}
	}
	ref := f.chunks[i]
	if f.src == nil {
		return f.data[ref.off : ref.off+int64(ref.size)], nil
	}
	payload := stage[:ref.size]
	if err := readAt(f.src, payload, ref.off); err != nil {
		return nil, err
	}
	if sums := f.sums.Load(); sums != nil {
		if sum := crc32.Checksum(payload, castagnoli); sum != (*sums)[i] {
			return nil, corruptf("payload CRC32-C %08x, %08x at Verify: the file changed since it was verified", sum, (*sums)[i])
		}
	}
	return payload, nil
}

// Stream returns a fresh reader over core's entry sequence.  Cores beyond
// the recorded count yield an immediately exhausted stream, so a trace can
// be replayed on a system with fewer active cores than recorded slots.
func (f *File) Stream(core int) *Reader {
	r := &Reader{f: f, core: core}
	if f.src != nil {
		r.stage = make([]byte, f.maxPayload)
	}
	return r
}

// Reader is one core's replay cursor.  It implements workload.Stream,
// decoding from the staged chunk straight into the caller's batch buffer,
// so NextBatch runs allocation-free.
type Reader struct {
	f      *File
	core   int
	ci     int // index of the next chunk to consider
	openCi int // index of the currently staged chunk, for error context

	stage     []byte // the staging buffer of a File from Open, sized to its largest chunk
	payload   []byte // staged payload of the open chunk
	pos       int
	remaining int
	prevAddr  mem.Addr

	err error
}

// Err returns the first error; NextBatch returns 0 after an error.  Over a
// Verify-ed File only a host read error (wrapping ErrIO) or a chunk changed
// since Verify (ErrCorrupt) sets it.
func (r *Reader) Err() error { return r.err }

// nextChunk stages the next chunk owned by this core; false at end of trace
// or on a staging error.
func (r *Reader) nextChunk() bool {
	for ; r.ci < len(r.f.chunks); r.ci++ {
		ref := r.f.chunks[r.ci]
		if int(ref.core) != r.core {
			continue
		}
		payload, err := r.f.stageChunk(r.ci, r.stage)
		if err != nil {
			r.err = r.f.chunkErr(r.ci, err)
			r.payload = nil
			return false
		}
		r.payload = payload
		r.pos = 0
		r.remaining = int(ref.entries)
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

// sharedFiles holds OpenShared's entry for every path it has been asked
// for.  The map's lock is held only to find or add an entry; opening and
// verifying a path happens under that path's own lock, so distinct paths
// verify in parallel while callers of one path wait for its one open.
var sharedFiles = struct {
	mu sync.Mutex
	m  map[string]*sharedFile
}{m: map[string]*sharedFile{}}

// sharedFile is one path's opened-and-verified File, with what Stat said of
// its file when it was opened; f is nil until an open succeeds.
type sharedFile struct {
	mu   sync.Mutex
	f    *File
	info os.FileInfo
}

// sharedOpened, when non-nil, sees each File OpenShared opens before
// verifying it; a test hook to stall one path's verification.
var sharedOpened func(*File)

// OpenShared returns a fully verified File for path, opening and verifying
// it once per version of the file — a File is safe for concurrent readers,
// so one serves every simulation of a sweep.  The File stays open for the
// life of the process: at most one descriptor per distinct path.  Each call
// stats the path: a file that is gone fails as Open does, and a file
// replaced or rewritten since it was opened (another inode, size or
// modification time) is opened and verified again.  The File it replaces
// is not closed, since a replay may still be reading it; its descriptor
// closes once nothing references it.  A change the stat cannot see (an
// in-place rewrite within the modification-time granularity) fails replay
// with ErrCorrupt through Verify's checksums.  Failed opens are not cached.
// Concurrent callers for one path share its one open; callers for other
// paths do not wait for it.
func OpenShared(path string) (*File, error) {
	sharedFiles.mu.Lock()
	e := sharedFiles.m[path]
	if e == nil {
		e = &sharedFile{}
		sharedFiles.m[path] = e
	}
	sharedFiles.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f != nil {
		cur, err := os.Stat(path)
		if err == nil && os.SameFile(e.info, cur) && cur.Size() == e.info.Size() && cur.ModTime().Equal(e.info.ModTime()) {
			return e.f, nil
		}
		e.f, e.info = nil, nil
	}
	f, info, err := openFile(path)
	if err != nil {
		return nil, err
	}
	if sharedOpened != nil {
		sharedOpened(f)
	}
	if err := f.Verify(); err != nil {
		f.Close()
		// Verify's chunk errors already carry the path (set by Open).
		return nil, err
	}
	e.f, e.info = f, info
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
