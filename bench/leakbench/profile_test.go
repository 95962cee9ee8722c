package main

import (
	"math"
	"os"
	"testing"
)

func TestFoldTopFixture(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := foldTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim":        0.35, // a flat row plus an inlined one
		"cache":      0.10,
		"decay":      0.05,
		"workload":   0.05,
		"experiment": 0.02, // a compiler-generated type:.eq. function
		"runtime":    0.10, // runtime and internal/runtime/...
		"syscall":    0.05, // internal/runtime/syscall goes here, not to runtime
		"http":       0.04,
		"json":       0.03,
		"math":       0.05, // math.Exp inlined into its caller still counts for math
		"hash":       0.03,
		"fmt":        0.02,
		// slices (generic, with slashes in its type arguments), an internal
		// package with no layer of its own, the benchmark's main package and
		// a symbol without a package.
		"other": 0.11,
	}
	sum := 0.0
	for _, l := range layerPackages {
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", l, shares[l], want[l])
		}
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestFoldTopRejectsTextWithoutTable(t *testing.T) {
	if _, err := foldTop("File: x\nType: cpu\n"); err == nil {
		t.Fatal("foldTop accepted output with no table header")
	}
	if _, err := foldTop("      flat  flat%   sum%        cum   cum%\n  1.5parsecs 1% 1% 1s 1%  runtime.x\n"); err == nil {
		t.Fatal("foldTop accepted an unknown unit")
	}
}

func TestFoldTopEmptyProfile(t *testing.T) {
	shares, err := foldTop("Type: cpu\nShowing nodes accounting for 0, 0% of 0 total\n      flat  flat%   sum%        cum   cum%\n")
	if err != nil {
		t.Fatal(err)
	}
	for l, v := range shares {
		if v != 0 {
			t.Errorf("%s share = %v in an empty profile", l, v)
		}
	}
}

func TestParsePprofValue(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
	}{
		{"0", 0},
		{"1.20s", 1.2e9},
		{"70ms", 70e6},
		{"15us", 15e3},
		{"15µs", 15e3},
		{"800ns", 800},
		{"1.50mins", 90e9},
		{"2hrs", 7200e9},
	} {
		got, err := parsePprofValue(tc.in)
		if err != nil || math.Abs(got-tc.want) > 1e-3 {
			t.Errorf("parsePprofValue(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestPkgPath(t *testing.T) {
	for _, tc := range []struct{ fn, want string }{
		{"cmpleak/internal/sim.(*Engine).RunLimit", "cmpleak/internal/sim"},
		{"cmpleak/internal/experiment.RunParallelAllContext.func1", "cmpleak/internal/experiment"},
		{"runtime.mallocgc", "runtime"},
		{"internal/runtime/maps.(*Iter).Next", "internal/runtime/maps"},
		{"type:.eq.cmpleak/internal/experiment.Key", "cmpleak/internal/experiment"},
		{"slices.SortFunc[go.shape.[]cmpleak/internal/experiment.Key]", "slices"},
		{"aeshashbody", "aeshashbody"},
	} {
		if got := pkgPath(tc.fn); got != tc.want {
			t.Errorf("pkgPath(%q) = %q, want %q", tc.fn, got, tc.want)
		}
	}
}
