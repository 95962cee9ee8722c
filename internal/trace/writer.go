package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"cmpleak/internal/workload"
)

// DefaultChunkEntries is the writer's default entry count per chunk: large
// enough that the 17-byte chunk header is noise, small enough that a reader
// never stages more than a few tens of KB per chunk.
const DefaultChunkEntries = 4096

// WriterOptions tune a Writer.
type WriterOptions struct {
	// ChunkEntries overrides the entries per chunk (default
	// DefaultChunkEntries, max maxChunkEntries).
	ChunkEntries int
}

// Writer streams a trace file: entries are appended per core, buffered into
// fixed-size chunks, and framed out as each chunk fills.  Nothing is
// retained beyond one pending chunk per core, so recording is O(cores) in
// memory regardless of trace length.  Each core's pending chunk is
// allocated once at its full size, and chunks are encoded and framed in
// buffers the writer keeps, so a flush allocates nothing.
type Writer struct {
	w      io.Writer
	hdr    Header
	opts   WriterOptions
	pend   [][]workload.Entry // per-core pending entries of the open chunk
	encBuf []byte             // reused chunk encode buffer
	hdrBuf [chunkHeaderLen]byte
	err    error
	closed bool
}

// NewWriter writes the file header and returns a Writer appending to w.
func NewWriter(w io.Writer, hdr Header, opts WriterOptions) (*Writer, error) {
	if err := hdr.Validate(); err != nil {
		return nil, err
	}
	if opts.ChunkEntries == 0 {
		opts.ChunkEntries = DefaultChunkEntries
	}
	if opts.ChunkEntries < 1 || opts.ChunkEntries > maxChunkEntries {
		return nil, fmt.Errorf("trace: ChunkEntries %d out of range [1,%d]", opts.ChunkEntries, maxChunkEntries)
	}
	tw := &Writer{w: w, hdr: hdr, opts: opts, pend: make([][]workload.Entry, hdr.Cores)}
	var buf []byte
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	hb := appendHeader(nil, hdr)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hb)))
	buf = append(buf, hb...)
	if _, err := w.Write(buf); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return tw, nil
}

// Header returns the header the writer recorded.
func (tw *Writer) Header() Header { return tw.hdr }

// Append adds one entry to core's stream.
func (tw *Writer) Append(core int, e workload.Entry) error {
	return tw.AppendBatch(core, []workload.Entry{e})
}

// AppendBatch adds a run of entries to core's stream, flushing chunks as
// they fill.
func (tw *Writer) AppendBatch(core int, entries []workload.Entry) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.closed {
		return fmt.Errorf("trace: append after Close")
	}
	if core < 0 || core >= tw.hdr.Cores {
		return tw.fail(fmt.Errorf("trace: core %d out of range [0,%d)", core, tw.hdr.Cores))
	}
	// Validate eagerly so a bad entry is reported at its Append, not at an
	// arbitrary later chunk flush.  The bounds mirror the reader's exactly:
	// anything accepted here round-trips.
	for _, e := range entries {
		if e.ComputeInstrs < 0 || e.ComputeInstrs > math.MaxInt32 {
			return tw.fail(fmt.Errorf("trace: ComputeInstrs %d outside [0, MaxInt32]", e.ComputeInstrs))
		}
		if e.Op > workload.Store {
			return tw.fail(fmt.Errorf("trace: unknown op kind %d", e.Op))
		}
	}
	if cap(tw.pend[core]) < tw.opts.ChunkEntries {
		tw.pend[core] = make([]workload.Entry, 0, tw.opts.ChunkEntries)
	}
	for len(entries) > 0 {
		room := tw.opts.ChunkEntries - len(tw.pend[core])
		take := len(entries)
		if take > room {
			take = room
		}
		tw.pend[core] = append(tw.pend[core], entries[:take]...)
		entries = entries[take:]
		if len(tw.pend[core]) == tw.opts.ChunkEntries {
			if err := tw.flushCore(core); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush writes every core's partial chunk to the underlying writer.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	for core := range tw.pend {
		if err := tw.flushCore(core); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes pending chunks and finalises the trace.  It does not close
// the underlying writer.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	err := tw.Flush()
	tw.closed = true
	return err
}

// fail latches the first error; every later call returns it.
func (tw *Writer) fail(err error) error {
	if tw.err == nil {
		tw.err = err
	}
	return tw.err
}

// flushCore encodes and frames core's pending chunk.
func (tw *Writer) flushCore(core int) error {
	entries := tw.pend[core]
	if len(entries) == 0 {
		return nil
	}
	enc, _, err := appendEntries(tw.encBuf[:0], entries, 0)
	if err != nil {
		return tw.fail(err)
	}
	tw.encBuf = enc
	tw.pend[core] = tw.pend[core][:0]
	hdr := appendChunkHeader(tw.hdrBuf[:0], chunkHeader{
		core:      uint32(core),
		entries:   uint32(len(entries)),
		encLen:    uint32(len(enc)),
		storedLen: uint32(len(enc)),
	})
	if _, err := tw.w.Write(hdr); err != nil {
		return tw.fail(fmt.Errorf("trace: writing chunk header: %w", err))
	}
	if _, err := tw.w.Write(enc); err != nil {
		return tw.fail(fmt.Errorf("trace: writing chunk payload: %w", err))
	}
	return nil
}

// Create opens (truncating) a trace file at path and returns a Writer over
// a buffered file handle plus a closer that flushes everything down to the
// file.
func Create(path string, hdr Header, opts WriterOptions) (*Writer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	tw, err := NewWriter(bw, hdr, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	closeAll := func() error {
		err := tw.Close()
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if ferr := f.Close(); err == nil {
			err = ferr
		}
		return err
	}
	return tw, closeAll, nil
}

// CaptureOptions tune Capture.
type CaptureOptions struct {
	// LimitPerCore caps the entries recorded per stream (0 = everything).
	LimitPerCore int
}

// captureBatch is the entries per NextBatch call Capture makes, and
// capturePool the batch buffers each stream's producer cycles through, so a
// producer runs at most capturePool batches ahead of the writer.  Four
// streams share two CPUs and the writer takes their batches in strict
// rotation; a pool of 16 absorbs the scheduling jitter between them
// (recording full-scale WATER-NS took ~190 ms with 2 buffers, ~155 ms
// with 4 and ~110 ms with 8 to 32).  Each stream holds
// capturePool*captureBatch 24-byte entries, 96 KiB.
const (
	captureBatch = 256
	capturePool  = 16
)

// Capture drains every stream of a generator into a trace writer and
// returns the per-core entry counts.  Each stream is generated on its own
// goroutine, through exactly the NextBatch calls a sequential drain in
// batches of captureBatch entries makes; the caller's goroutine appends the
// batches round-robin across cores, the way a live multi-core simulation
// interleaves them, so the file is byte-identical to that drain's.  The
// generator's streams must therefore share no mutable state (see
// workload.Generator).  Producers stop once the writer fails; a panic in a
// stream is re-raised on the caller's goroutine when the round-robin reaches
// it.  The caller still owns the writer (call Close/Flush afterwards).
func Capture(gen workload.Generator, cores int, seed uint64, w *Writer, opts CaptureOptions) ([]uint64, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("trace: Capture needs at least one core")
	}
	if err := workload.CheckCores(gen, cores); err != nil {
		return nil, err
	}
	streams := gen.Streams(cores, seed)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	producers := make([]*producer, len(streams))
	for i, s := range streams {
		producers[i] = newProducer(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			producers[i].run(opts.LimitPerCore, stop)
		}()
	}

	counts := make([]uint64, len(streams))
	live := len(streams)
	done := make([]bool, len(streams))
	for live > 0 {
		for i, p := range producers {
			if done[i] {
				continue
			}
			batch, ok := <-p.full
			if !ok {
				if p.panicked {
					panic(p.panicVal)
				}
				// A stream that failed (a replayed trace whose chunk does
				// not decode) reads as exhausted; refuse to record it as
				// a shorter stream.
				if e, ok := p.s.(interface{ Err() error }); ok {
					if err := e.Err(); err != nil {
						return counts, fmt.Errorf("trace: capturing core %d: %w", i, err)
					}
				}
				done[i] = true
				live--
				continue
			}
			if err := w.AppendBatch(i, batch); err != nil {
				return counts, err
			}
			counts[i] += uint64(len(batch))
			p.free <- batch[:cap(batch)]
		}
	}
	return counts, nil
}

// producer generates one stream's batches for Capture.  Either channel can
// hold all capturePool buffers, so no send blocks; only taking a free
// buffer can.
type producer struct {
	s    workload.Stream
	free chan []workload.Entry // empty buffers, returned by the writer side
	full chan []workload.Entry // filled batches; closed when the stream ends

	// Set before full is closed: a panic NextBatch raised, for Capture to
	// re-raise.
	panicked bool
	panicVal any
}

func newProducer(s workload.Stream) *producer {
	p := &producer{
		s:    s,
		free: make(chan []workload.Entry, capturePool),
		full: make(chan []workload.Entry, capturePool),
	}
	for range capturePool {
		p.free <- make([]workload.Entry, captureBatch)
	}
	return p
}

// run fills batches until the stream is exhausted, limit (0 = none)
// entries are generated, or stop closes.
func (p *producer) run(limit int, stop <-chan struct{}) {
	defer close(p.full)
	defer func() {
		if v := recover(); v != nil {
			p.panicked, p.panicVal = true, v
		}
	}()
	var got uint64
	for {
		var buf []workload.Entry
		select {
		case buf = <-p.free:
		case <-stop:
			return
		}
		if limit > 0 {
			if left := uint64(limit) - got; left < uint64(len(buf)) {
				buf = buf[:left]
			}
		}
		if len(buf) == 0 {
			return
		}
		n := p.s.NextBatch(buf)
		if n == 0 {
			return
		}
		got += uint64(n)
		p.full <- buf[:n]
	}
}
