// Command tracegen records the per-core reference streams of a benchmark in
// the simulator's binary trace format (internal/trace), and inspects
// existing trace files.
//
// Generate a binary trace (the default mode):
//
//	tracegen -benchmark FMM -cores 4 -scale 0.1 -o fmm.trc
//
// Import an external Dinero-style text trace ("<label> <hex-addr>" lines,
// 0 = read, 1 = write, 2 = instruction fetch) into the binary format:
//
//	tracegen -import din:prog.din -cores 1 -o prog.trc
//
// With -cores above 1 the data references are dealt round-robin across the
// cores; -cores 1 preserves the uniprocessor trace as recorded.  The result
// replays like any recorded trace ("leaksweep -benchmarks trace:prog.trc").
//
// Inspect:
//
//	tracegen -dump fmm.trc -limit 20     # text dump of a trace file
//	tracegen -dump fmm.trc -stats        # per-core summary of a trace file
//	tracegen -benchmark FMM -text        # text dump straight from the generator
//	tracegen -benchmark FMM -stats       # per-core summary without writing a file
//
// The recorded file replays bit-for-bit through `cmpleaksim -trace` and
// sweeps through `leaksweep -benchmarks trace:fmm.trc` exactly like a
// synthetic benchmark.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

func main() {
	var (
		benchmark = flag.String("benchmark", "WATER-NS", "benchmark name or 'synthetic'")
		cores     = flag.Int("cores", 4, "number of cores / streams")
		scale     = flag.Float64("scale", 0.05, "workload scale factor")
		seed      = flag.Uint64("seed", 1, "workload seed")
		limit     = flag.Int("limit", 0, "max entries per core (0 = all)")
		out       = flag.String("o", "", "write the binary trace to this file")
		imp       = flag.String("import", "", "convert an external trace: 'din:<path>' (Dinero text format)")
		dump      = flag.String("dump", "", "read this trace file instead of generating")
		text      = flag.Bool("text", false, "print a text dump instead of writing a binary trace")
		stats     = flag.Bool("stats", false, "print per-core summary statistics instead of the trace")
	)
	flag.Parse()

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	if *imp != "" {
		importTrace(*imp, *out, *cores)
		return
	}

	if *dump != "" {
		dumpFile(w, *dump, *limit, *stats)
		return
	}

	var gen workload.Generator
	var err error
	if *benchmark == "synthetic" {
		gen, err = workload.NewSynthetic(workload.DefaultSyntheticConfig(), *scale)
	} else {
		gen, err = workload.ByName(*benchmark, *scale)
	}
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *out != "":
		record(gen, *out, *cores, *scale, *seed, *limit)
	case *stats:
		for coreID, stream := range gen.Streams(*cores, *seed) {
			printStats(w, coreID, stream)
		}
	case *text:
		for coreID, stream := range gen.Streams(*cores, *seed) {
			dumpStream(w, coreID, stream, *limit)
		}
	default:
		fatalf("nothing to do: pass -o <file> to record, or -text/-stats to inspect (-h for help)")
	}
}

// record captures the generator into a binary trace file.
func record(gen workload.Generator, path string, cores int, scale float64, seed uint64, limit int) {
	hdr := trace.Header{
		Cores:     cores,
		LineBytes: 64,
		Seed:      seed,
		Scale:     scale,
		Benchmark: gen.Name(),
	}
	tw, closeTrace, err := trace.Create(path, hdr, trace.WriterOptions{})
	if err != nil {
		fatalf("%v", err)
	}
	counts, err := trace.Capture(gen, cores, seed, tw, trace.CaptureOptions{LimitPerCore: limit})
	if cerr := closeTrace(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		fatalf("recording %s: %v", path, err)
	}
	var total uint64
	for _, n := range counts {
		total += n
	}
	st, err := os.Stat(path)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %s: %s, %d cores, %d entries, %d bytes (%.2f B/entry)\n",
		path, gen.Name(), cores, total, st.Size(), float64(st.Size())/float64(max(total, 1)))
}

// importTrace converts an external text trace into the binary format.
func importTrace(spec, out string, cores int) {
	format, path, ok := strings.Cut(spec, ":")
	if !ok || path == "" {
		fatalf("-import wants <format>:<path>, e.g. din:prog.din")
	}
	if format != "din" {
		fatalf("unknown import format %q (supported: din)", format)
	}
	if out == "" {
		fatalf("-import needs -o <file> for the binary trace")
	}
	if cores < 1 {
		fatalf("-import needs at least one core")
	}
	src, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer src.Close()
	hdr := trace.Header{
		Cores:     cores,
		LineBytes: 64,
		Benchmark: filepath.Base(path),
	}
	tw, closeTrace, err := trace.Create(out, hdr, trace.WriterOptions{})
	if err != nil {
		fatalf("%v", err)
	}
	counts, err := trace.ImportDin(src, tw)
	if cerr := closeTrace(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(out)
		fatalf("importing %s: %v", path, err)
	}
	var total uint64
	for _, n := range counts {
		total += n
	}
	st, err := os.Stat(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: imported %s -> %s: %d cores, %d entries, %d bytes\n",
		path, out, cores, total, st.Size())
}

// dumpFile prints a recorded trace as text or summary statistics.
func dumpFile(w *bufio.Writer, path string, limit int, stats bool) {
	f, err := trace.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	hdr := f.Header()
	fmt.Fprintf(w, "# %s: benchmark=%s cores=%d line=%dB scale=%g seed=%d entries=%v\n",
		path, hdr.Benchmark, hdr.Cores, hdr.LineBytes, hdr.Scale, hdr.Seed, f.EntryCounts())
	for core := 0; core < hdr.Cores; core++ {
		r := f.Stream(core)
		if stats {
			printStats(w, core, r)
		} else {
			dumpStream(w, core, r, limit)
		}
		if r.Err() != nil {
			fatalf("reading %s core %d: %v", path, core, r.Err())
		}
	}
}

// dumpStream prints one stream in the one-line-per-entry text format,
// stopping after limit entries when limit is positive.
func dumpStream(w *bufio.Writer, coreID int, stream workload.Stream, limit int) {
	buf := make([]workload.Entry, 256)
	for printed := 0; limit <= 0 || printed < limit; {
		room := buf
		if limit > 0 && limit-printed < len(room) {
			room = room[:limit-printed]
		}
		n := stream.NextBatch(room)
		if n == 0 {
			return
		}
		for _, e := range room[:n] {
			fmt.Fprintf(w, "core=%d compute=%d op=%s addr=%s\n", coreID, e.ComputeInstrs, e.Op, e.Addr)
		}
		printed += n
	}
}

// printStats summarises one stream: reference counts, store fraction,
// instruction count and unique 64-byte blocks.  It reads the stream one
// batch at a time, so it holds one batch and the block set, never the
// whole stream.
func printStats(w *bufio.Writer, coreID int, stream workload.Stream) {
	blocks := make(map[uint64]struct{})
	var loads, stores, instrs uint64
	buf := make([]workload.Entry, 256)
	for n := stream.NextBatch(buf); n > 0; n = stream.NextBatch(buf) {
		for _, e := range buf[:n] {
			switch e.Op {
			case workload.Load:
				loads++
			case workload.Store:
				stores++
			}
			if e.Op != workload.None {
				blocks[uint64(e.Addr)/64] = struct{}{}
			}
			instrs += e.Instructions()
		}
	}
	total := loads + stores
	storeFrac := 0.0
	if total > 0 {
		storeFrac = float64(stores) / float64(total)
	}
	fmt.Fprintf(w, "core=%d refs=%d loads=%d stores=%d store_frac=%.2f instrs=%d unique_blocks=%d footprint=%dKB\n",
		coreID, total, loads, stores, storeFrac, instrs, len(blocks), len(blocks)*64/1024)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
