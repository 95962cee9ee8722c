package main

import (
	"strings"
	"testing"

	"cmpleak/internal/core"
	"cmpleak/internal/decay"
)

// TestTechniqueSpec checks that every -technique name with -decay 8K maps
// to the spec the shared parser returns: the decay family takes the
// interval, baseline and protocol ignore it.
func TestTechniqueSpec(t *testing.T) {
	for name, text := range map[string]string{
		"baseline":  "baseline",
		"protocol":  "protocol",
		"decay":     "decay:8K",
		"sel_decay": "sel_decay:8K",
		"adaptive":  "adaptive:8K",
	} {
		want, err := decay.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := techniqueSpec(name, "8K")
		if err != nil {
			t.Errorf("techniqueSpec(%q, 8K): %v", name, err)
		} else if got != want {
			t.Errorf("techniqueSpec(%q, 8K) = %+v, want %+v", name, got, want)
		}
	}
}

func TestTechniqueSpecErrors(t *testing.T) {
	for _, c := range [][2]string{{"decay", "12Q"}, {"turbo", "8K"}} {
		if _, err := techniqueSpec(c[0], c[1]); err == nil {
			t.Errorf("techniqueSpec(%q, %q) accepted it", c[0], c[1])
		}
	}
}

// TestPrintResultShowsSmallEnergy checks that an energy term far below the
// run's total, like a decay run's counter overhead, prints as its value and
// not as zero.
func TestPrintResultShowsSmallEnergy(t *testing.T) {
	var res core.Result
	res.Energy.DecayOverhead = 1.2e-7
	res.EnergyJ = 0.25
	var out strings.Builder
	printResult(&out, res)
	var line string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "decay overhead") {
			line = l
		}
	}
	if !strings.Contains(line, "1.2000e-07") {
		t.Fatalf("decay overhead printed as %q, want 1.2000e-07", line)
	}
}
