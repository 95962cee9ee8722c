// Package trace defines the simulator's binary reference-trace format and
// its I/O layer: a compact, streaming container for the per-core
// workload.Entry sequences that drive the CMP.
//
// A trace file lets a workload be recorded once (from the synthetic
// generators, or in principle from any instrumented source) and replayed
// bit-for-bit: the reader produces the exact entry sequence of the original
// stream, so a simulation driven from a file is indistinguishable from one
// driven live.  Files are the unit of sharing for calibration runs — the
// full-scale reference streams the paper's figures need are generated once
// and swept many times.
//
// # File layout
//
//	magic   "CMPLTRCE"                       8 bytes
//	version uint16 little-endian             (currently 1)
//	hdrLen  uint32 little-endian             length of the header block
//	header  hdrLen bytes:
//	    cores      uvarint                   number of per-core streams
//	    lineBytes  uvarint                   cache line size of the recorder
//	    seed       uvarint                   workload seed of the recorder
//	    scale      float64 bits (8 B LE)     workload scale of the recorder
//	    benchmark  uvarint len + bytes       recorded benchmark name
//	chunks  repeated until end of file:
//	    core       uint32 little-endian      owning stream
//	    entries    uint32 little-endian      entry count of the chunk
//	    encLen     uint32 little-endian      encoded byte length
//	    storedLen  uint32 little-endian      bytes stored in the file (= encLen)
//	    flags      uint8                     must be 0
//	    payload    storedLen bytes
//
// Each chunk payload is a self-contained varint encoding of `entries`
// records.  One record is
//
//	head  uvarint        ComputeInstrs<<2 | Op
//	delta zigzag varint  Addr - prevAddr     (only when Op != None)
//
// where prevAddr is the address of the previous memory operation in the
// same chunk, starting at 0 — chunks never reference state outside
// themselves, so readers can skip foreign-core chunks without decoding them
// and corruption never propagates past a chunk boundary.
//
// # Versioning rules
//
// The magic identifies the container; the version is bumped whenever the
// header or chunk layout changes incompatibly.  Readers reject versions
// they do not know with ErrVersion instead of guessing.  Adding new header
// metadata or a chunk flag bit is a version bump.  A chunk's flags byte
// must be 0 and its payload is stored as encoded (storedLen = encLen); the
// reader refuses anything else with ErrCorrupt.  Bit 0 once marked a
// DEFLATE-compressed payload: a trace holding such chunks must be
// re-recorded.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cmpleak/internal/mem"
	"cmpleak/internal/workload"
)

// Magic opens every trace file.
const Magic = "CMPLTRCE"

// Version is the current format version.
const Version = 1

const (
	// chunkHeaderLen is the fixed byte length of a chunk header.
	chunkHeaderLen = 4 + 4 + 4 + 4 + 1

	// maxChunkEntries bounds the entry count of one chunk; the writer's
	// default is far below it, the reader rejects anything above it.
	maxChunkEntries = 1 << 16

	// maxEntryEncoded is the worst-case encoded size of one record: a
	// 10-byte head uvarint plus a 10-byte address delta.
	maxEntryEncoded = 20

	// maxChunkPayload bounds the encoded byte length of one chunk, so a
	// corrupt or hostile header cannot make the reader stage an absurd
	// buffer.
	maxChunkPayload = maxChunkEntries * maxEntryEncoded

	// maxHeaderLen bounds the variable header block.
	maxHeaderLen = 1 << 16

	// maxCores bounds the recorded stream count (the simulator's floorplan
	// tops out far below this; the bound exists for corrupt files).
	maxCores = 1024
)

// Errors returned by the reader; all corruption paths return a wrapped
// ErrCorrupt (or ErrVersion for an unknown version) — never a panic.
var (
	// ErrCorrupt reports a malformed trace file.
	ErrCorrupt = errors.New("trace: corrupt file")
	// ErrVersion reports a trace written by an unknown format version.
	ErrVersion = errors.New("trace: unsupported version")
	// ErrIO reports a host I/O failure reading a trace file (as opposed to a
	// malformed file): the file itself may be fine, so errors wrapping ErrIO
	// classify as transient and the sweep retry policy replays them.
	ErrIO = errors.New("trace: read failed")
)

// ioError marks a host I/O failure as transient for the sweep retry policy
// (experiment.DefaultTransient probes for Transient() bool) while keeping
// both the ErrIO sentinel and the original error reachable via errors.Is/As.
type ioError struct{ err error }

func (e *ioError) Error() string   { return e.err.Error() }
func (e *ioError) Transient() bool { return true }
func (e *ioError) Unwrap() []error { return []error{ErrIO, e.err} }

// corruptf wraps ErrCorrupt with position context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Header carries the trace-wide metadata recorded at capture time.  Cores
// and LineBytes describe the recorded system; Benchmark, Scale and Seed
// identify the generator configuration the streams came from, so a replay
// can be matched to (or distinguished from) its live equivalent.
type Header struct {
	// Cores is the number of per-core streams in the file.
	Cores int
	// LineBytes is the cache line size the recording system used.
	LineBytes uint64
	// Seed is the workload seed the streams were generated with.
	Seed uint64
	// Scale is the workload scale factor of the recording.
	Scale float64
	// Benchmark is the recorded benchmark name ("WATER-NS", "synthetic"...).
	Benchmark string
}

// Validate checks the header fields a writer is about to record.
func (h Header) Validate() error {
	if h.Cores <= 0 || h.Cores > maxCores {
		return fmt.Errorf("trace: header Cores %d out of range [1,%d]", h.Cores, maxCores)
	}
	if len(h.Benchmark) > 4096 {
		return fmt.Errorf("trace: header Benchmark name longer than 4096 bytes")
	}
	return nil
}

// appendHeader encodes the variable header block.
func appendHeader(dst []byte, h Header) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Cores))
	dst = binary.AppendUvarint(dst, h.LineBytes)
	dst = binary.AppendUvarint(dst, h.Seed)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Scale))
	dst = binary.AppendUvarint(dst, uint64(len(h.Benchmark)))
	return append(dst, h.Benchmark...)
}

// parseHeader decodes the variable header block.
func parseHeader(b []byte) (Header, error) {
	var h Header
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, corruptf("truncated header varint")
		}
		b = b[n:]
		return v, nil
	}
	cores, err := next()
	if err != nil {
		return h, err
	}
	if cores == 0 || cores > maxCores {
		return h, corruptf("header cores %d out of range [1,%d]", cores, maxCores)
	}
	h.Cores = int(cores)
	if h.LineBytes, err = next(); err != nil {
		return h, err
	}
	if h.Seed, err = next(); err != nil {
		return h, err
	}
	if len(b) < 8 {
		return h, corruptf("truncated header scale")
	}
	h.Scale = math.Float64frombits(binary.LittleEndian.Uint64(b))
	b = b[8:]
	nameLen, err := next()
	if err != nil {
		return h, err
	}
	if nameLen > uint64(len(b)) {
		return h, corruptf("header benchmark name overruns header block")
	}
	h.Benchmark = string(b[:nameLen])
	return h, nil
}

// chunkHeader is the decoded fixed prefix of one chunk.
type chunkHeader struct {
	core      uint32
	entries   uint32
	encLen    uint32
	storedLen uint32
	flags     uint8
}

// appendChunkHeader encodes a chunk header.
func appendChunkHeader(dst []byte, ch chunkHeader) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, ch.core)
	dst = binary.LittleEndian.AppendUint32(dst, ch.entries)
	dst = binary.LittleEndian.AppendUint32(dst, ch.encLen)
	dst = binary.LittleEndian.AppendUint32(dst, ch.storedLen)
	return append(dst, ch.flags)
}

// parseChunkHeader decodes a chunk header from a full chunkHeaderLen slice.
func parseChunkHeader(b []byte) chunkHeader {
	return chunkHeader{
		core:      binary.LittleEndian.Uint32(b[0:4]),
		entries:   binary.LittleEndian.Uint32(b[4:8]),
		encLen:    binary.LittleEndian.Uint32(b[8:12]),
		storedLen: binary.LittleEndian.Uint32(b[12:16]),
		flags:     b[16],
	}
}

// zigzag folds a signed delta into an unsigned varint payload.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag is the inverse of zigzag.
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// appendEntries encodes a run of entries into dst, delta-chaining memory
// addresses from prevAddr (pass 0 at a chunk start) and returning the new
// chain state.
func appendEntries(dst []byte, entries []workload.Entry, prevAddr mem.Addr) ([]byte, mem.Addr, error) {
	for _, e := range entries {
		if e.ComputeInstrs < 0 || e.ComputeInstrs > math.MaxInt32 {
			return dst, prevAddr, fmt.Errorf("trace: ComputeInstrs %d outside [0, MaxInt32]", e.ComputeInstrs)
		}
		if e.Op > workload.Store {
			return dst, prevAddr, fmt.Errorf("trace: unknown op kind %d", e.Op)
		}
		dst = binary.AppendUvarint(dst, uint64(e.ComputeInstrs)<<2|uint64(e.Op))
		if e.Op != workload.None {
			dst = binary.AppendUvarint(dst, zigzag(int64(e.Addr)-int64(prevAddr)))
			prevAddr = e.Addr
		}
	}
	return dst, prevAddr, nil
}

// uvarint decodes one varint at pos, returning the value and the position
// after it; a negative position reports truncation or overflow.  The one-
// and two-byte encodings — short compute runs and small address deltas,
// which dominate trace payloads — decode inline; longer encodings take the
// stdlib loop.  Replaying a trace decodes two varints per memory entry, so
// this sits directly on the replay hot path.
func uvarint(b []byte, pos int) (uint64, int) {
	if pos < len(b) {
		if v := b[pos]; v < 0x80 {
			return uint64(v), pos + 1
		} else if pos+1 < len(b) {
			if v1 := b[pos+1]; v1 < 0x80 {
				return uint64(v&0x7f) | uint64(v1)<<7, pos + 2
			}
		}
	}
	v, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, -1
	}
	return v, pos + n
}

// decodeEntries decodes exactly len(out) records from b starting at pos,
// continuing the address chain from prevAddr.  It returns the new position
// and chain state; a short or malformed payload yields ErrCorrupt.
func decodeEntries(b []byte, pos int, prevAddr mem.Addr, out []workload.Entry) (int, mem.Addr, error) {
	for i := range out {
		head, hpos := uvarint(b, pos)
		if hpos < 0 {
			return pos, prevAddr, corruptf("truncated entry head at payload offset %d", pos)
		}
		pos = hpos
		op := workload.OpKind(head & 3)
		if op > workload.Store {
			return pos, prevAddr, corruptf("invalid op kind %d at payload offset %d", op, pos)
		}
		compute := head >> 2
		if compute > math.MaxInt32 {
			return pos, prevAddr, corruptf("compute run %d exceeds MaxInt32", compute)
		}
		e := workload.Entry{ComputeInstrs: int(compute), Op: op}
		if op != workload.None {
			d, dpos := uvarint(b, pos)
			if dpos < 0 {
				return pos, prevAddr, corruptf("truncated address delta at payload offset %d", pos)
			}
			pos = dpos
			prevAddr = mem.Addr(int64(prevAddr) + unzigzag(d))
			e.Addr = prevAddr
		}
		out[i] = e
	}
	return pos, prevAddr, nil
}
