package main

import (
	"bufio"
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"cmpleak/internal/mem"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// dumpEntries is the 300-entry stream both dump sources replay: compute
// runs of i%7 instructions, alternating loads and stores, consecutive
// blocks from 1 MB.
func dumpEntries() []workload.Entry {
	entries := make([]workload.Entry, 300)
	for i := range entries {
		op := workload.Load
		if i%2 == 1 {
			op = workload.Store
		}
		entries[i] = workload.Entry{ComputeInstrs: i % 7, Op: op, Addr: mem.Addr(0x100000 + 64*i)}
	}
	return entries
}

// sliceStream replays a fixed slice of entries.
type sliceStream struct{ entries []workload.Entry }

// NextBatch implements workload.Stream.
func (s *sliceStream) NextBatch(buf []workload.Entry) int {
	n := copy(buf, s.entries)
	s.entries = s.entries[n:]
	return n
}

// recordedReader records entries as core 0 of an in-memory trace and
// returns that core's replay cursor.
func recordedReader(t *testing.T, entries []workload.Entry) *trace.Reader {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Cores: 1, LineBytes: 64, Benchmark: "dump"}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(0, entries); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := trace.New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return f.Stream(0)
}

// dumpStream prints min(limit, len) lines, every entry when limit is 0,
// whether the stream is a slice or a recorded trace, and batch boundaries
// (256 entries) neither drop nor repeat an entry.
func TestDumpStreamLimit(t *testing.T) {
	const first = "core=2 compute=0 op=load addr=0x100000"
	for _, tc := range []struct {
		limit int
		lines int
		last  string
	}{
		{0, 300, "core=2 compute=5 op=store addr=0x104ac0"},
		{5, 5, "core=2 compute=4 op=load addr=0x100100"},
		{256, 256, "core=2 compute=3 op=store addr=0x103fc0"},
		{257, 257, "core=2 compute=4 op=load addr=0x104000"},
		{1000, 300, "core=2 compute=5 op=store addr=0x104ac0"},
	} {
		for _, src := range []struct {
			name   string
			stream func() workload.Stream
		}{
			{"slice", func() workload.Stream { return &sliceStream{entries: dumpEntries()} }},
			{"trace", func() workload.Stream { return recordedReader(t, dumpEntries()) }},
		} {
			var out bytes.Buffer
			w := bufio.NewWriter(&out)
			dumpStream(w, 2, src.stream(), tc.limit)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if len(lines) != tc.lines {
				t.Fatalf("%s, limit %d: %d lines, want %d", src.name, tc.limit, len(lines), tc.lines)
			}
			if lines[0] != first || lines[len(lines)-1] != tc.last {
				t.Fatalf("%s, limit %d: first %q, last %q; want %q, %q",
					src.name, tc.limit, lines[0], lines[len(lines)-1], first, tc.last)
			}
		}
	}
}

// TestStatsOutput pins -stats output on both paths — straight from a
// generator and from a recorded file — to the lines the summary printed when
// it drained each whole stream before counting.
func TestStatsOutput(t *testing.T) {
	gen, err := workload.ByName("WATER-NS", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	for core, stream := range gen.Streams(4, 1) {
		printStats(w, core, stream)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `core=0 refs=5400 loads=3941 stores=1459 store_frac=0.27 instrs=77993 unique_blocks=261 footprint=16KB
core=1 refs=5400 loads=3906 stores=1494 store_frac=0.28 instrs=79229 unique_blocks=262 footprint=16KB
core=2 refs=5400 loads=3964 stores=1436 store_frac=0.27 instrs=77077 unique_blocks=258 footprint=16KB
core=3 refs=5400 loads=3885 stores=1515 store_frac=0.28 instrs=78694 unique_blocks=257 footprint=16KB
`
	if out.String() != want {
		t.Fatalf("generator -stats output:\n%s\nwant:\n%s", out.String(), want)
	}

	gen, err = workload.ByName("mpeg2dec", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.trc")
	record(gen, path, 2, 0.01, 3, 0)
	out.Reset()
	dumpFile(w, path, 0, true)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want = "# " + path + `: benchmark=mpeg2dec cores=2 line=64B scale=0.01 seed=3 entries=[3000 3000]
core=0 refs=3000 loads=1895 stores=1105 store_frac=0.37 instrs=62325 unique_blocks=241 footprint=15KB
core=1 refs=3000 loads=1885 stores=1115 store_frac=0.37 instrs=61380 unique_blocks=201 footprint=12KB
`
	if out.String() != want {
		t.Fatalf("-dump -stats output:\n%s\nwant:\n%s", out.String(), want)
	}
}
