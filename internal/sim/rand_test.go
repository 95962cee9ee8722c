package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRandDifferentSeedsDiffer(t *testing.T) {
	a := NewRand(1)
	b := NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) returned %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRand(7)
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 returned %v", v)
		}
	}
}

func TestFloat64Coverage(t *testing.T) {
	// The generator should cover both halves of [0,1) reasonably evenly.
	r := NewRand(13)
	low := 0
	n := 20000
	for i := 0; i < n; i++ {
		if r.Float64() < 0.5 {
			low++
		}
	}
	frac := float64(low) / float64(n)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("low-half fraction %.3f, want ~0.5", frac)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(17)
	hits := 0
	n := 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.2) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("Bool(0.2) hit fraction %.3f, want ~0.2", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRand(19)
	sum := 0
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Geometric(8)
	}
	mean := float64(sum) / float64(n)
	if mean < 6.5 || mean > 9.5 {
		t.Fatalf("Geometric(8) sample mean %.2f, want ~8", mean)
	}
}

func TestGeometricMinimumOne(t *testing.T) {
	r := NewRand(23)
	for i := 0; i < 1000; i++ {
		if r.Geometric(0.5) < 1 {
			t.Fatal("Geometric returned a value below 1")
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRand(29)
	n := 1000
	counts := make([]int, n)
	draws := 200000
	for i := 0; i < draws; i++ {
		v := r.Zipf(n, 1.0)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// The first decile must receive clearly more mass than the last decile.
	first, last := 0, 0
	for i := 0; i < n/10; i++ {
		first += counts[i]
		last += counts[n-1-i]
	}
	if first <= last*2 {
		t.Fatalf("Zipf skew too weak: first decile %d, last decile %d", first, last)
	}
}

func TestZipfUniformWhenSkewZero(t *testing.T) {
	r := NewRand(31)
	n := 10
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		counts[r.Zipf(n, 0)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Zipf(s=0) bucket %d has %d draws, want ~10000", i, c)
		}
	}
}

func TestZipfSmallN(t *testing.T) {
	r := NewRand(37)
	if v := r.Zipf(1, 1.2); v != 0 {
		t.Fatalf("Zipf(1) = %d, want 0", v)
	}
	if v := r.Zipf(0, 1.2); v != 0 {
		t.Fatalf("Zipf(0) = %d, want 0", v)
	}
}

// Property: Uint64n(n) stays within [0, n) for arbitrary n.
func TestPropertyUint64nRange(t *testing.T) {
	r := NewRand(41)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: reseeding with the same value restarts the identical sequence.
func TestPropertySeedRestart(t *testing.T) {
	f := func(seed uint64) bool {
		a := NewRand(seed)
		first := []uint64{a.Uint64(), a.Uint64(), a.Uint64()}
		a.Seed(seed)
		for _, want := range first {
			if a.Uint64() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestChanceMatchesFloat64 pins Hit(NewChance(p)) to the float test it
// replaces, Float64() < p, on the same draw: at the edge values of p, at
// random p, and at the integer draws either side of each threshold.
func TestChanceMatchesFloat64(t *testing.T) {
	ps := []float64{0, math.SmallestNonzeroFloat64, 1.0 / 3, 0.5, math.Nextafter(1, 0), 1, 1.5,
		math.NaN(), math.Inf(1), math.Inf(-1), -0.25}
	pr := NewRand(43)
	for range 100000 {
		ps = append(ps, float64(pr.Uint64())/(1<<64)) // full-precision p, not multiples of 2^-53
	}
	a, b := NewRand(47), NewRand(47)
	for _, p := range ps {
		c := NewChance(p)
		for range 4 {
			if got, want := a.Hit(c), b.Float64() < p; got != want {
				t.Fatalf("p=%v: Hit = %v, Float64() < p = %v", p, got, want)
			}
		}
		// The draw m hits exactly when m/2^53 < p; check the integers
		// around the threshold and the ends of the 53-bit range.
		thr := uint64(c)
		for _, m := range []uint64{0, 1, thr - 1, thr, thr + 1, 1<<53 - 1} {
			if m >= 1<<53 {
				continue
			}
			if got, want := m < thr, float64(m)/(1<<53) < p; got != want {
				t.Fatalf("p=%v, draw %d: threshold %d says %v, float test says %v", p, m, thr, got, want)
			}
		}
	}
}

// refGeometric is Geometric before the precomputed sampler: a loop of
// float Bool(1/mean) draws, one more draw at the limit.
func refGeometric(r *Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1.0 / mean
	limit := int(mean * 16)
	n := 1
	for !(r.Float64() < p) && n < limit {
		n++
	}
	return n
}

// TestGeomMatchesReference pins Geom.Sample (and the Geometric wrapper) to
// the reference loop: the same value and the same generator state after
// every call, so exactly as many draws.
func TestGeomMatchesReference(t *testing.T) {
	for _, mean := range []float64{0.5, 1, 1 + 1e-9, 9, 12.6, 16.2} {
		g := NewGeom(mean)
		a, b, c := NewRand(53), NewRand(53), NewRand(53)
		for i := range 100000 {
			want := refGeometric(b, mean)
			if got := g.Sample(a); got != want || *a != *b {
				t.Fatalf("mean %v, call %d: Sample = %d (state %v), reference %d (state %v)", mean, i, got, *a, want, *b)
			}
			if got := c.Geometric(mean); got != want || *c != *b {
				t.Fatalf("mean %v, call %d: Geometric = %d, reference %d", mean, i, got, want)
			}
		}
	}
}

// TestGeomDrawsAtLimit pins the cap path, which random draws at a real
// mean reach about once in 10^7 calls: a chance that never hits stops at
// the limit after exactly limit draws.
func TestGeomDrawsAtLimit(t *testing.T) {
	a, b := NewRand(59), NewRand(59)
	if got := (Geom{c: 0, limit: 5, draws: true}).Sample(a); got != 5 {
		t.Fatalf("capped Sample = %d, want 5", got)
	}
	for range 5 {
		b.Uint64()
	}
	if *a != *b {
		t.Fatalf("capped Sample left state %v, want %v after 5 draws", *a, *b)
	}
}

// refZipf is Zipf before its constants were hoisted.
func refZipf(r *Rand, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s <= 0 {
		return r.Intn(n)
	}
	u := r.Float64()
	var v float64
	if s == 1 {
		v = powf(float64(n)+1, u)
	} else {
		oneMinus := 1 - s
		v = powf(u*(powf(float64(n)+1, oneMinus)-1)+1, 1/oneMinus)
	}
	idx := int(v) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// TestZipfMatchesInline pins the hoisted-constant sampler to the inline
// expression, draw for draw.
func TestZipfMatchesInline(t *testing.T) {
	for _, s := range []float64{0.6, 0.9, 1, 1.1} {
		for _, n := range []int{2, 7, 1000, 1 << 20} {
			z := NewZipf(n, s)
			a, b, c := NewRand(61), NewRand(61), NewRand(61)
			for i := range 20000 {
				want := refZipf(b, n, s)
				if got := z.Sample(a); got != want {
					t.Fatalf("s=%v n=%d draw %d: Sample = %d, inline %d", s, n, i, got, want)
				}
				if got := c.Zipf(n, s); got != want {
					t.Fatalf("s=%v n=%d draw %d: Zipf = %d, inline %d", s, n, i, got, want)
				}
			}
		}
	}
}
