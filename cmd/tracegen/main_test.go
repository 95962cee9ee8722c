package main

import (
	"bufio"
	"bytes"
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
			{"slice", func() workload.Stream { return workload.NewSliceStream(dumpEntries()) }},
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
