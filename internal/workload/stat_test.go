package workload

import (
	"strings"
	"testing"
)

func TestStatSpecParseErrors(t *testing.T) {
	for _, tc := range []struct {
		spec, inMsg string
	}{
		{"", "empty stat spec"},
		{"  ", "empty stat spec"},
		{"refs", "not key=value"},
		{"refs=", "not key=value"},
		{"=5", "not key=value"},
		{"turbo=1", "unknown key"},
		{"refs=2K,refs=4K", "twice"},
		{"refs=abc", "refs=abc"},
		{"refs=0", "outside"},
		{"states=0", "outside"},
		{"states=99", "outside"},
		{"loc=1.5", "fraction"},
		{"loc=-0.1", "fraction"},
		{"write=nan", "fraction"},
		{"comp=-3", "not in"},
		{"foot=1", "outside"},
		{"refs=99999999G", "outside"},
		{"foot=9999999999G", "overflows"},
	} {
		if _, err := parseStatSpec(tc.spec); err == nil {
			t.Errorf("parseStatSpec(%q) accepted", tc.spec)
		} else if !strings.Contains(err.Error(), tc.inMsg) {
			t.Errorf("parseStatSpec(%q) error %q does not say %q", tc.spec, err, tc.inMsg)
		}
	}
}

func TestStatSpecSuffixesAndDefaults(t *testing.T) {
	spec, err := parseStatSpec("refs=2K,foot=1M,shared=0")
	if err != nil {
		t.Fatal(err)
	}
	if spec.refs != 2048 || spec.footBytes != 1<<20 || spec.sharedBytes != 0 {
		t.Fatalf("suffixed values wrong: %+v", spec)
	}
	if spec.states != 3 || spec.phase != 20<<10 || spec.loc != 0.6 {
		t.Fatalf("unset keys lost their defaults: %+v", spec)
	}
}

// TestStatDeterministic pins that the spec string names a fixed program:
// same spec and seed replay byte-identically, while either a different seed
// or a different spec diverges.
func TestStatDeterministic(t *testing.T) {
	const spec = "stat:refs=4K,states=4,loc=0.8"
	a, err := ByName(spec, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ByName(spec, 1.0)
	for c, s := range a.Streams(2, 5) {
		x, y := Drain(s), Drain(b.Streams(2, 5)[c])
		if len(x) != len(y) || len(x) == 0 {
			t.Fatalf("core %d: %d vs %d entries", c, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("core %d entry %d differs", c, i)
			}
		}
	}
	x := Drain(a.Streams(1, 5)[0])
	y := Drain(b.Streams(1, 6)[0])
	if entriesEqual(x, y) {
		t.Fatal("different seeds replayed the same path")
	}
	cgen, _ := ByName("stat:refs=4K,states=4,loc=0.1", 1.0)
	if entriesEqual(x, Drain(cgen.Streams(1, 5)[0])) {
		t.Fatal("different specs replayed the same path")
	}
}

func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStatKnobsRespected spot-checks the spec knobs against drained
// streams: the reference budget, the write share at its extremes, and the
// scale factor.
func TestStatKnobsRespected(t *testing.T) {
	count := func(spec string, scale float64) (refs, stores int) {
		gen, err := ByName(spec, scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range Drain(gen.Streams(1, 3)[0]) {
			if e.Op != None {
				refs++
			}
			if e.Op == Store {
				stores++
			}
		}
		return refs, stores
	}
	refs, stores := count("stat:refs=4K,write=0", 1.0)
	if refs != 4096 {
		t.Fatalf("refs=4K produced %d references", refs)
	}
	if stores != 0 {
		t.Fatalf("write=0 produced %d stores", stores)
	}
	if _, stores = count("stat:refs=4K,write=1", 1.0); stores < 4096/4 {
		t.Fatalf("write=1 produced only %d stores of 4096", stores)
	}
	if refs, _ = count("stat:refs=4K", 0.25); refs != 1024 {
		t.Fatalf("scale 0.25 produced %d of the 4096 references", refs)
	}
}

// TestStatBatchInvariance pins the resumable-generation property: the entry
// sequence is identical at every batch size, including one entry per call.
func TestStatBatchInvariance(t *testing.T) {
	const spec = "stat:refs=4K,states=5"
	ref, _ := ByName(spec, 1.0)
	want := Drain(ref.Streams(1, 9)[0])
	for _, size := range []int{1, 7, 64, 1024} {
		gen, _ := ByName(spec, 1.0)
		bs := gen.Streams(1, 9)[0]
		buf := make([]Entry, size)
		var got []Entry
		for {
			n := bs.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !entriesEqual(want, got) {
			t.Fatalf("batch size %d diverges from the Drain sequence", size)
		}
	}
}

// TestStatNextBatchAllocationFree guards the stat hot path (`make
// test-allocs`): steady-state generation must not allocate.
func TestStatNextBatchAllocationFree(t *testing.T) {
	gen, err := ByName("stat:refs=100M", 1)
	if err != nil {
		t.Fatal(err)
	}
	bs := gen.Streams(1, 3)[0]
	buf := make([]Entry, 256)
	if allocs := testing.AllocsPerRun(200, func() {
		if bs.NextBatch(buf) == 0 {
			t.Fatal("stream exhausted during the allocation guard")
		}
	}); allocs != 0 {
		t.Errorf("stat NextBatch allocates %.1f objects/op, want 0", allocs)
	}
}
