package decay

// Textual technique specifications.  Scenario files, the CLIs and tests all
// name techniques the same way the figures label them — "protocol",
// "decay:512K", "sel_decay:64K" — so the parser lives next to Spec instead
// of being reimplemented per front-end.

import (
	"fmt"
	"strconv"
	"strings"

	"cmpleak/internal/sim"
)

// ParseCycles parses a cycle count with the paper's K/M suffixes ("512K",
// "1M", "8192").
func ParseCycles(s string) (sim.Cycle, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(t, "K"):
		mult = 1024
		t = strings.TrimSuffix(t, "K")
	case strings.HasSuffix(t, "M"):
		mult = 1024 * 1024
		t = strings.TrimSuffix(t, "M")
	}
	v, err := strconv.ParseUint(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("decay: invalid cycle count %q", s)
	}
	if v > (1<<63)/mult {
		return 0, fmt.Errorf("decay: cycle count %q overflows", s)
	}
	return sim.Cycle(v * mult), nil
}

// ParseSpec parses a textual technique specification:
//
//	baseline
//	protocol
//	decay:512K  sel_decay:64K  adaptive:128K
//
// Decay-family techniques require the interval suffix; baseline and protocol
// reject one.  The accepted names are exactly the Kind.String() values, so a
// Spec round-trips through its figure label: ParseSpec(spec.Name()) == spec
// for every supported configuration.
func ParseSpec(s string) (Spec, error) {
	name, arg, hasArg := strings.Cut(strings.TrimSpace(s), ":")
	var kind Kind
	switch name {
	case "baseline":
		kind = KindAlwaysOn
	case "protocol":
		kind = KindProtocol
	case "decay":
		kind = KindDecay
	case "sel_decay":
		kind = KindSelectiveDecay
	case "adaptive":
		kind = KindAdaptive
	default:
		// Accept the compact figure labels too ("decay512K") so a technique
		// can be named exactly as a report row prints it.
		for _, k := range []Kind{KindDecay, KindSelectiveDecay, KindAdaptive} {
			prefix := k.String()
			if strings.HasPrefix(name, prefix) && len(name) > len(prefix) && !hasArg {
				return parseSpecArg(k, name[len(prefix):], s)
			}
		}
		return Spec{}, fmt.Errorf("decay: unknown technique %q", s)
	}
	switch kind {
	case KindDecay, KindSelectiveDecay, KindAdaptive:
		if !hasArg || arg == "" {
			return Spec{}, fmt.Errorf("decay: technique %q needs a decay interval (e.g. %q)", s, name+":512K")
		}
		return parseSpecArg(kind, arg, s)
	default:
		if hasArg {
			return Spec{}, fmt.Errorf("decay: technique %q takes no decay interval", s)
		}
		return Spec{Kind: kind}, nil
	}
}

// parseSpecArg finishes a decay-family spec from its interval text.
func parseSpecArg(kind Kind, arg, full string) (Spec, error) {
	cycles, err := ParseCycles(arg)
	if err != nil || cycles == 0 {
		return Spec{}, fmt.Errorf("decay: technique %q has an invalid decay interval %q", full, arg)
	}
	return Spec{Kind: kind, DecayCycles: cycles}, nil
}
