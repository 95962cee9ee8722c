package experiment

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"cmpleak/internal/workload"
)

// Headline summarises the abstract's claim for one cache size: the energy
// reduction and IPC loss of Protocol, Decay and Selective Decay averaged
// over all benchmarks (the paper reports 13%/30%/21% energy at 0%/8%/2% IPC
// loss for 4 MB).
type Headline struct {
	SizeMB int
	// Ordered as {Protocol, Decay, SelectiveDecay} using the largest decay
	// time present in the sweep (the paper's headline uses the technique
	// family, not a specific decay time; 512K is the least aggressive).
	Techniques       []string
	EnergyReductions []float64
	IPCLosses        []float64
}

// HeadlineAt computes the headline comparison for one total cache size.
func (s *Sweep) HeadlineAt(sizeMB int) Headline {
	h := Headline{SizeMB: sizeMB}
	si := slices.Index(s.Options.CacheSizesMB, sizeMB)
	pick := func(prefix string) int {
		// Choose the first technique in configured order matching the
		// family prefix (ties go to the least aggressive decay time, which
		// is listed first in the paper's sweep).  "decay" must not match
		// the "sel_decay" family.
		for t, name := range s.names {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			if prefix == "decay" && strings.HasPrefix(name, "sel_") {
				continue
			}
			return t
		}
		return -1
	}
	picked := [...]int{pick("protocol"), pick("decay"), pick("sel_decay")}
	h.Techniques = make([]string, 0, len(picked))
	h.EnergyReductions = make([]float64, 0, len(picked))
	h.IPCLosses = make([]float64, 0, len(picked))
	for _, t := range picked {
		if t < 0 {
			continue
		}
		var e, i float64
		if si >= 0 {
			e, _ = s.averageOverBenchmarks(si, t, metricEnergyReduction)
			i, _ = s.averageOverBenchmarks(si, t, metricIPCLoss)
		}
		h.Techniques = append(h.Techniques, s.names[t])
		h.EnergyReductions = append(h.EnergyReductions, e)
		h.IPCLosses = append(h.IPCLosses, i)
	}
	return h
}

// String renders the headline in the style of the paper's abstract.
func (h Headline) String() string {
	b := make([]byte, 0, 32+64*len(h.Techniques))
	b = append(b, "For "...)
	b = strconv.AppendInt(b, int64(h.SizeMB), 10)
	b = append(b, " MB total L2 cache:\n"...)
	for i, tech := range h.Techniques {
		// fmt: "  %-14s energy reduction %5.1f%%  at IPC loss %5.1f%%\n"
		b = append(b, "  "...)
		b = append(b, tech...)
		b = appendSpaces(b, 14-utf8.RuneCountInString(tech))
		b = append(b, " energy reduction "...)
		b = appendPadded(b, h.EnergyReductions[i]*100)
		b = append(b, "%  at IPC loss "...)
		b = appendPadded(b, h.IPCLosses[i]*100)
		b = append(b, "%\n"...)
	}
	return string(b)
}

// appendPadded appends fmt's "%5.1f" of v: one decimal, right-aligned in
// five columns.
func appendPadded(b []byte, v float64) []byte {
	var buf [32]byte
	num := appendFixed(buf[:0], v, 1)
	return append(appendSpaces(b, 5-len(num)), num...)
}

// appendSpaces appends n spaces (none when n <= 0).
func appendSpaces(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

// ClassSummary aggregates a metric separately over scientific and multimedia
// benchmarks, supporting the paper's observation that decay hurts scientific
// codes more than multimedia ones.
type ClassSummary struct {
	Technique  string
	SizeMB     int
	Scientific float64
	Multimedia float64
}

// IPCLossByClass returns per-class average IPC loss for one technique and
// size.
func (s *Sweep) IPCLossByClass(sizeMB int, technique string) ClassSummary {
	out := ClassSummary{Technique: technique, SizeMB: sizeMB}
	var sciSum, mmSum float64
	var sciN, mmN int
	for _, bench := range s.Options.Benchmarks {
		cmp, ok := s.Compare(bench, sizeMB, technique)
		if !ok {
			continue
		}
		switch workload.ClassOf(bench) {
		case workload.Scientific:
			sciSum += cmp.IPCLoss
			sciN++
		case workload.Multimedia:
			mmSum += cmp.IPCLoss
			mmN++
		}
	}
	if sciN > 0 {
		out.Scientific = sciSum / float64(sciN)
	}
	if mmN > 0 {
		out.Multimedia = mmSum / float64(mmN)
	}
	return out
}

// Report renders the whole evaluation (all figures plus the headline) as
// markdown, ready to be pasted into EXPERIMENTS.md.
func (s *Sweep) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Reproduction sweep (scale=%.3g, seed=%d)\n\n", s.Options.Scale, s.Options.Seed)
	for _, mb := range s.Options.CacheSizesMB {
		b.WriteString(s.HeadlineAt(mb).String())
		b.WriteString("\n")
	}
	for _, fig := range s.AllFigures() {
		b.WriteString(fig.Markdown())
		b.WriteString("\n")
	}
	return b.String()
}
