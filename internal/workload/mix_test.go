package workload

import (
	"errors"
	"strings"
	"testing"

	"cmpleak/internal/mem"
)

func drainN(s Stream, n int) []Entry {
	out := make([]Entry, 0, n)
	buf := make([]Entry, 64)
	for len(out) < n {
		k := s.NextBatch(buf)
		if k == 0 {
			break
		}
		out = append(out, buf[:k]...)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func TestParseMixSpecErrors(t *testing.T) {
	for _, tc := range []struct {
		spec, inMsg string
	}{
		{"noequals", "not of the form"},
		{"=FMM", "empty name"},
		{"a|b=FMM", "reserved character"},
		{"a/b=FMM", "reserved character"},
		{"a:b=FMM", "reserved character"},
		{"m=", "empty element"},
		{"m=FMM|", "empty element"},
		{"m=|FMM", "empty element"},
		{"m=mix:n=FMM", "nests"},
	} {
		if _, _, err := ParseMixSpec(tc.spec); err == nil {
			t.Errorf("ParseMixSpec(%q) accepted", tc.spec)
		} else if !strings.Contains(err.Error(), tc.inMsg) {
			t.Errorf("ParseMixSpec(%q) error %q does not say %q", tc.spec, err, tc.inMsg)
		}
	}
	name, elems, err := ParseMixSpec("duo=WATER-NS|trace:a=b.trc")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if name != "duo" || len(elems) != 2 || elems[1] != "trace:a=b.trc" {
		t.Fatalf("parsed %q %v; '=' after the first must stay in the elements", name, elems)
	}
}

func TestMixUnknownElementFailsResolution(t *testing.T) {
	if _, err := ByName("mix:m=quake3", 1.0); err == nil {
		t.Fatal("mix with an unknown element resolved")
	}
}

// TestMixSingleElementEquivalence pins the identity that makes mixes
// trustworthy: a mix of one element produces byte-identical streams to the
// plain benchmark (same seed passthrough, zero address offset), so a mix
// cell differs from a plain cell only by what actually differs.
func TestMixSingleElementEquivalence(t *testing.T) {
	plain, err := ByName("WATER-NS", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := ByName("mix:solo=WATER-NS", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ps := plain.Streams(4, 7)
	ms := mixed.Streams(4, 7)
	for c := range ps {
		want, got := drainN(ps[c], 2000), drainN(ms[c], 2000)
		if len(want) != len(got) {
			t.Fatalf("core %d: %d vs %d entries", c, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("core %d entry %d: %+v != %+v", c, i, got[i], want[i])
			}
		}
	}
}

// TestMixTilingAndWindows pins the tile pattern and the per-group address
// windows: cores running the same element share its regions, different
// elements live in disjoint 1 TB windows.
func TestMixTilingAndWindows(t *testing.T) {
	gen, err := ByName("mix:duo=WATER-NS|mpeg2enc", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	streams := gen.Streams(4, 3)
	window := func(core int) mem.Addr {
		var w mem.Addr
		for i, e := range drainN(streams[core], 500) {
			if e.Op == None {
				continue
			}
			if i == 0 {
				w = e.Addr >> mixOffsetShift
			}
			if e.Addr>>mixOffsetShift != w {
				t.Fatalf("core %d mixes address windows %d and %d", core, w, e.Addr>>mixOffsetShift)
			}
		}
		return w
	}
	// Pattern tiles [W, m, W, m]: cores 0 and 2 in group 0, cores 1 and 3 in
	// group 1's displaced window.
	if w0, w2 := window(0), window(2); w0 != 0 || w2 != 0 {
		t.Fatalf("group-0 cores displaced: windows %d, %d", w0, w2)
	}
	if w1, w3 := window(1), window(3); w1 != 1 || w3 != 1 {
		t.Fatalf("group-1 cores in windows %d, %d, want 1", w1, w3)
	}
}

func TestMixDeterministicAcrossCalls(t *testing.T) {
	const spec = "mix:d=FMM|mpeg2dec"
	for seed := uint64(1); seed <= 2; seed++ {
		a, _ := ByName(spec, 0.01)
		b, _ := ByName(spec, 0.01)
		as, bs := a.Streams(2, seed), b.Streams(2, seed)
		for c := range as {
			x, y := drainN(as[c], 1000), drainN(bs[c], 1000)
			for i := range x {
				if x[i] != y[i] {
					t.Fatalf("seed %d core %d entry %d differs", seed, c, i)
				}
			}
		}
	}
	// Distinct seeds must not replay the same path.
	a, _ := ByName(spec, 0.01)
	b, _ := ByName(spec, 0.01)
	x := drainN(a.Streams(2, 1)[1], 200)
	y := drainN(b.Streams(2, 2)[1], 200)
	same := len(x) == len(y)
	for i := 0; same && i < len(x); i++ {
		same = x[i] == y[i]
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical mix streams")
	}
}

func TestMixCheckCores(t *testing.T) {
	gen, err := ByName("mix:trio=FMM|FMM|mpeg2enc", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ok := range []int{3, 6} {
		if err := CheckCores(gen, ok); err != nil {
			t.Errorf("CheckCores(%d) rejected a 3-element mix: %v", ok, err)
		}
	}
	for _, bad := range []int{1, 2, 4, 0} {
		if err := CheckCores(gen, bad); err == nil {
			t.Errorf("CheckCores(%d) accepted a 3-element mix", bad)
		}
	}
	// Built-in benchmarks are seed-dependent, so their mixes are too.
	if IsSeedInvariant(gen) {
		t.Fatal("mix of synthetic benchmarks claims seed invariance")
	}
}

// TestMixNextBatchAllocationFree guards the mix hot path (`make
// test-allocs`): the offset fixup wraps the underlying generators without
// re-introducing per-batch allocations.
func TestMixNextBatchAllocationFree(t *testing.T) {
	gen, err := ByName("mix:g=WATER-NS|mpeg2enc", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Core 1 exercises the offsetStream wrapper (group 1).
	bs := gen.Streams(2, 3)[1]
	buf := make([]Entry, 256)
	if allocs := testing.AllocsPerRun(200, func() {
		if bs.NextBatch(buf) == 0 {
			t.Fatal("stream exhausted during the allocation guard")
		}
	}); allocs != 0 {
		t.Errorf("mix NextBatch allocates %.1f objects/op, want 0", allocs)
	}
}

// errStream is an exhausted stream that failed, like a trace Reader whose
// chunk did not decode.
type errStream struct{ err error }

func (s errStream) NextBatch([]Entry) int { return 0 }
func (s errStream) Err() error            { return s.err }

// TestMixOffsetStreamPassesErr pins that displacing a mix element's
// addresses does not hide its stream's decode error from the consumer.
func TestMixOffsetStreamPassesErr(t *testing.T) {
	want := errors.New("chunk 3: corrupt")
	s := &offsetStream{s: errStream{want}, off: 1 << mixOffsetShift}
	if err := s.Err(); err != want {
		t.Fatalf("offset stream Err() = %v, want %v", err, want)
	}
	plain := &offsetStream{s: &sliceStream{}}
	if err := plain.Err(); err != nil {
		t.Fatalf("offset stream over an error-free stream reports %v", err)
	}
}
