package experiment

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// The report cells, headlines and run keys were once rendered with fmt;
// these tests hold the strconv/integer renderers that replaced it to fmt's
// bytes.

// cellEdgeValues are values whose rendering is easy to get wrong: signed
// zeros, non-finite values, rounding boundaries and magnitudes on both sides
// of appendFixed's fast path.
var cellEdgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	0.0005, 0.00049999, 0.9995, -1e-12, 1e9,
	0.25, 0.35, 0.45, 2.5e-7, 0.0000005, 0.00000049999999999, 0.05, 0.15,
	1e12, math.Nextafter(1e12, 0), 1e15, 1e21, -1e300, math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022,
	0.1 + 0.2, 123456.7895, 9.99999949999, -0.00000050000000001,
}

func TestCellFormattersMatchFmt(t *testing.T) {
	for _, v := range cellEdgeValues {
		if got, want := string(appendPercent(nil, v)), fmt.Sprintf("%.1f%%", v*100); got != want {
			t.Errorf("Markdown cell of %v = %q, fmt gives %q", v, got, want)
		}
		if got, want := string(appendFraction(nil, v)), fmt.Sprintf("%.6f", v); got != want {
			t.Errorf("CSV cell of %v = %q, fmt gives %q", v, got, want)
		}
	}
}

// TestAppendFixedMatchesFmt compares appendFixed with fmt at every
// precision it handles, over random bit patterns, random values at report
// magnitudes, exact decimal ties and their float neighbours.
func TestAppendFixedMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	check := func(x float64) {
		for prec := 0; prec <= 7; prec++ {
			if got, want := string(appendFixed(nil, x, prec)), fmt.Sprintf("%.*f", prec, x); got != want {
				t.Fatalf("appendFixed(%v [%#016x], %d) = %q, fmt gives %q",
					x, math.Float64bits(x), prec, got, want)
			}
		}
	}
	for _, v := range cellEdgeValues {
		check(v)
	}
	for i := 0; i < 10000; i++ {
		check(math.Float64frombits(rng.Uint64()))                             // any float
		check((rng.Float64()*2 - 1) * math.Pow(10, float64(rng.IntN(30)-16))) // report-like magnitudes
		// Decimal ties at every precision (k + 1/2) / 10^p, exact or
		// nearest, and the floats on either side of them.
		p := rng.IntN(7)
		tie := (float64(rng.IntN(1_000_000)) + 0.5) / math.Pow(10, float64(p))
		check(tie)
		check(math.Nextafter(tie, 0))
		check(math.Nextafter(tie, math.Inf(1)))
	}
	// Exactly representable ties: multiples of 2^-k.
	for k := 1; k <= 30; k++ {
		for m := 1; m < 64; m += 2 {
			check(math.Ldexp(float64(m), -k))
			check(-math.Ldexp(float64(m), -k))
		}
	}
}

// fmtHeadline is the fmt-based Headline.String the strconv one replaced.
func fmtHeadline(h Headline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "For %d MB total L2 cache:\n", h.SizeMB)
	for i, tech := range h.Techniques {
		fmt.Fprintf(&b, "  %-14s energy reduction %5.1f%%  at IPC loss %5.1f%%\n",
			tech, h.EnergyReductions[i]*100, h.IPCLosses[i]*100)
	}
	return b.String()
}

func TestHeadlineStringMatchesFmt(t *testing.T) {
	h := Headline{SizeMB: 4}
	names := []string{"protocol", "decay512K", "sel_decay1536K", "adaptive_very_long_name", "", "décay64K"}
	for i, v := range cellEdgeValues {
		h.Techniques = append(h.Techniques, names[i%len(names)])
		h.EnergyReductions = append(h.EnergyReductions, v)
		h.IPCLosses = append(h.IPCLosses, -v/3)
	}
	if got, want := h.String(), fmtHeadline(h); got != want {
		t.Fatalf("Headline.String differs from fmt:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got, want := (Headline{SizeMB: 1024}).String(), fmtHeadline(Headline{SizeMB: 1024}); got != want {
		t.Fatalf("empty headline = %q, fmt gives %q", got, want)
	}
}

func TestKeyStringMatchesFmt(t *testing.T) {
	for _, k := range []Key{
		{"WATER-NS", 4, "decay512K"},
		{"mix:FMM+VOLREND", 1024, "sel_decay1536K"},
		{"", 0, ""},
		{"trace:/tmp/a b.trc", -8, "baseline"},
	} {
		if got, want := k.String(), fmt.Sprintf("%s/%dMB/%s", k.Benchmark, k.SizeMB, k.Technique); got != want {
			t.Errorf("Key.String() = %q, fmt gives %q", got, want)
		}
	}
}
