package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// topShares runs `go tool pprof -top` over a CPU profile and folds its flat
// samples by layer; see foldTop.
func topShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile)
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go tool pprof: %v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}

// foldTop parses `go tool pprof -top` text and returns each layer's share of
// the flat samples.  pprof lists inlined functions as rows of their own, so a
// sample counts for the innermost function, inlined or not.  The shares sum
// to 1 over layerPackages (they are all 0 for a profile with no samples).
func foldTop(text string) (map[string]float64, error) {
	flat := make(map[string]float64)
	total := 0.0
	inRows := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if !inRows {
			inRows = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := parsePprofValue(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		fn := strings.TrimSuffix(strings.Join(fields[5:], " "), " (inline)")
		flat[layerOf(pkgPath(fn))] += v
		total += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inRows {
		return nil, fmt.Errorf("pprof output has no table header")
	}
	shares := make(map[string]float64, len(layerPackages))
	for _, l := range layerPackages {
		shares[l] = ratio(flat[l], total)
	}
	return shares, nil
}

// pprofUnits scales pprof's time suffixes to nanoseconds.
var pprofUnits = []struct {
	suffix string
	ns     float64
}{
	{"mins", 60e9}, {"hrs", 3600e9}, {"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9},
}

// parsePprofValue parses a flat column value such as "1.20s", "70ms" or "0".
func parsePprofValue(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	for _, u := range pprofUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.ns, nil
		}
	}
	return 0, fmt.Errorf("unknown unit in %q", s)
}

// pkgPath returns the import path of a symbolized Go function name such as
// "cmpleak/internal/sim.(*Engine).RunLimit" or "runtime.mallocgc".  Type
// arguments are dropped first, since they can hold slashes and dots, and a
// compiler-generated "type:.eq." prefix is skipped so the function counts for
// the type's package.
func pkgPath(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// stdLayers groups standard-library packages into layers: an import path
// belongs to the first group with an entry equal to it or a prefix of it
// ending in "/".
var stdLayers = []struct {
	layer string
	pkgs  []string
}{
	{"syscall", []string{"syscall", "internal/poll", "internal/runtime/syscall", "os"}},
	{"runtime", []string{"runtime", "internal/runtime"}},
	{"http", []string{"net"}},
	{"json", []string{"encoding/json"}},
	{"fmt", []string{"fmt", "strconv"}},
	{"math", []string{"math"}},
	{"hash", []string{"crypto", "hash"}},
}

// layerOf maps an import path to its layer name in layerPackages.
func layerOf(pkg string) string {
	if name, ok := strings.CutPrefix(pkg, "cmpleak/internal/"); ok {
		if slices.Contains(layerPackages, name) {
			return name
		}
		return "other"
	}
	for _, g := range stdLayers {
		for _, p := range g.pkgs {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return g.layer
			}
		}
	}
	return "other"
}
