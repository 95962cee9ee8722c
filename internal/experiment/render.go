package experiment

// WriteReport renders a sweep's report to one writer — the single renderer
// behind both `leaksweep` stdout and the leakserved service's /report
// endpoint, so "the service serves exactly what the CLI prints" is true by
// construction rather than by parallel maintenance.

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// figures lists the report's named figures in paper order.  It is the one
// list behind FigureIndex, WriteReport and AllFigures, so a single figure
// renders exactly as its section of the full report.
var figures = [...]struct {
	name  string
	table func(*Sweep) Table
}{
	{"3a", (*Sweep).Figure3a},
	{"3b", (*Sweep).Figure3b},
	{"4a", (*Sweep).Figure4a},
	{"4b", (*Sweep).Figure4b},
	{"5a", (*Sweep).Figure5a},
	{"5b", (*Sweep).Figure5b},
	{"6a", func(s *Sweep) Table { return s.Figure6a(s.figure6SizeMB()) }},
	{"6b", func(s *Sweep) Table { return s.Figure6b(s.figure6SizeMB()) }},
}

// NumFigures is the number of named figures WriteReport renders.
const NumFigures = len(figures)

// figure6SizeMB is the cache size of the per-benchmark Figures 6a/6b: the
// paper's 4 MB when the sweep has it, otherwise the largest swept size.
func (s *Sweep) figure6SizeMB() int {
	sizes := s.Options.CacheSizesMB
	if len(sizes) == 0 || slices.Contains(sizes, 4) {
		return 4
	}
	return slices.Max(sizes)
}

// AllFigures returns every figure of the evaluation in paper order.
func (s *Sweep) AllFigures() []Table {
	out := make([]Table, len(figures))
	for i, f := range figures {
		out[i] = f.table(s)
	}
	return out
}

// FigureIndex returns a figure name's position in paper order ("3a".."6b",
// case-insensitive); ok is false for an unknown name.  It builds no table,
// so it is the cheap check for a name that is rendered later.
func FigureIndex(fig string) (i int, ok bool) {
	for i, f := range figures {
		if strings.EqualFold(fig, f.name) {
			return i, true
		}
	}
	return -1, false
}

// WriteReport writes one figure (fig = "3a".."6b") or, with fig == "", the
// full report: the per-size headline block followed by every figure in paper
// order.  Output is markdown tables, or CSV when csv is set, terminated by
// the same blank-line separators the CLI has always printed.  An unknown
// figure name is an error (the CLI turns it into its usage fatalf).
func WriteReport(w io.Writer, s *Sweep, fig string, csv bool) error {
	emit := func(t Table) error {
		var err error
		if csv {
			_, err = fmt.Fprintln(w, t.CSV())
		} else {
			_, err = fmt.Fprintln(w, t.Markdown())
		}
		return err
	}

	if fig != "" {
		i, ok := FigureIndex(fig)
		if !ok {
			return fmt.Errorf("unknown figure %q (want 3a..6b)", fig)
		}
		return emit(figures[i].table(s))
	}

	for _, mb := range s.Options.CacheSizesMB {
		if _, err := fmt.Fprintln(w, s.HeadlineAt(mb)); err != nil {
			return err
		}
	}
	for _, t := range s.AllFigures() {
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}
