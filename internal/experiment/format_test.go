package experiment

import (
	"fmt"
	"math"
	"testing"
)

// The report cells and run keys were once rendered with fmt; these tests
// hold the strconv renderers that replaced it to fmt's bytes.

// cellEdgeValues are values whose rendering is easy to get wrong: signed
// zeros, non-finite values, rounding boundaries and extreme magnitudes.
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
