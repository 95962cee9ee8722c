package trace_test

// Capture → New → Verify → Streams must reproduce every generator family
// entry for entry: the sweep pool replays an in-memory capture to every
// job that shares a benchmark's streams, so a family whose entries did not
// round-trip exactly would change sweep results.

import (
	"bytes"
	"reflect"
	"testing"

	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// captureInMemory records gen's streams into an in-memory trace and
// returns it verified.
func captureInMemory(t *testing.T, gen workload.Generator, cores int, seed uint64) *trace.File {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Cores: cores, LineBytes: 64, Seed: seed, Benchmark: gen.Name()},
		trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Capture(gen, cores, seed, w, trace.CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := trace.New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInMemoryCaptureMatchesEveryGeneratorFamily(t *testing.T) {
	const (
		scale = 0.01
		seed  = 11
		cores = 4
	)
	type family struct {
		name string
		gen  workload.Generator
	}
	var families []family
	for _, name := range append(workload.Names(),
		"mix:duo=WATER-NS|mpeg2enc",
		"stat:refs=4K,states=4,loc=0.8",
	) {
		gen, err := workload.ByName(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		families = append(families, family{name, gen})
	}
	families = append(families,
		family{"synthetic", workload.MustNewSynthetic(workload.DefaultSyntheticConfig(), scale)})

	for _, fam := range families {
		gen := fam.gen
		t.Run(fam.name, func(t *testing.T) {
			f := captureInMemory(t, gen, cores, seed)
			live := gen.Streams(cores, seed)
			replay := f.Generator().Streams(cores, seed)
			for c := 0; c < cores; c++ {
				want := workload.Drain(live[c])
				got := workload.Drain(replay[c])
				if len(want) == 0 {
					t.Fatalf("core %d: live stream is empty", c)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("core %d: replay of %d entries differs from the live %d entries",
						c, len(got), len(want))
				}
				if err := replay[c].(*trace.Reader).Err(); err != nil {
					t.Fatalf("core %d: %v", c, err)
				}
			}
		})
	}
}
