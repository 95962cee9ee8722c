package main

import (
	"testing"

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
