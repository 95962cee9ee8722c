package experiment

import (
	"fmt"
	"slices"
	"strconv"

	"cmpleak/internal/core"
)

// Table is a reconstructed figure: one row per series (technique
// configuration) and one column per group (cache size for Figures 3-5,
// benchmark for Figure 6), exactly mirroring the bar groups of the paper.
type Table struct {
	// Title identifies the figure ("Figure 3a — L2 occupation rate").
	Title string
	// Unit describes the cell values ("fraction", "percent", ...).
	Unit string
	// Columns are the group labels ("1MB", "2MB", ... or benchmark names).
	Columns []string
	// Rows are the series, one per technique configuration.
	Rows []TableRow
}

// TableRow is one series of a Table.
type TableRow struct {
	Label  string
	Values []float64
}

// Cell returns the value at (rowLabel, column); ok is false when absent.
func (t Table) Cell(rowLabel, column string) (float64, bool) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && col < len(r.Values) {
			return r.Values[col], true
		}
	}
	return 0, false
}

// Row returns the series with the given label.
func (t Table) Row(label string) (TableRow, bool) {
	for _, r := range t.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return TableRow{}, false
}

// Markdown renders the table as a GitHub-style markdown table with
// percentage formatting.
func (t Table) Markdown() string {
	b := make([]byte, 0, 64+32*len(t.Rows)*(1+len(t.Columns)))
	b = append(b, "### "...)
	b = append(b, t.Title...)
	b = append(b, "\n\n| config |"...)
	for _, c := range t.Columns {
		b = append(b, ' ')
		b = append(b, c...)
		b = append(b, " |"...)
	}
	b = append(b, "\n|---|"...)
	for range t.Columns {
		b = append(b, "---|"...)
	}
	b = append(b, '\n')
	for _, r := range t.Rows {
		b = append(b, "| "...)
		b = append(b, r.Label...)
		b = append(b, " |"...)
		for _, v := range r.Values {
			b = append(b, ' ')
			b = appendPercent(b, v)
			b = append(b, " |"...)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// CSV renders the table as comma-separated values (raw fractions).
func (t Table) CSV() string {
	b := make([]byte, 0, 16+16*len(t.Rows)*(1+len(t.Columns)))
	b = append(b, "config"...)
	for _, c := range t.Columns {
		b = append(b, ',')
		b = append(b, c...)
	}
	b = append(b, '\n')
	for _, r := range t.Rows {
		b = append(b, r.Label...)
		for _, v := range r.Values {
			b = append(b, ',')
			b = appendFraction(b, v)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// appendPercent appends a Markdown cell, fmt's "%.1f%%" of v*100.
func appendPercent(b []byte, v float64) []byte {
	return append(appendFixed(b, v*100, 1), '%')
}

// appendFraction appends a CSV cell, fmt's "%.6f" of v.
func appendFraction(b []byte, v float64) []byte {
	return appendFixed(b, v, 6)
}

// metricFunc computes one figure value of run r against its baseline b.
type metricFunc func(r, b *core.Result) float64

// bySizeFigure builds a Figure 3-5 style table: columns are cache sizes,
// rows are technique configurations, values are the benchmark-average of the
// metric.
func (s *Sweep) bySizeFigure(title, unit string, metric metricFunc) Table {
	sizes := s.Options.CacheSizesMB
	t := Table{Title: title, Unit: unit, Columns: make([]string, len(sizes)), Rows: make([]TableRow, len(s.names))}
	for si, mb := range sizes {
		t.Columns[si] = strconv.Itoa(mb) + "MB"
	}
	values := make([]float64, len(s.names)*len(sizes))
	for ti, tech := range s.names {
		row := values[ti*len(sizes) : (ti+1)*len(sizes) : (ti+1)*len(sizes)]
		for si := range sizes {
			row[si], _ = s.averageOverBenchmarks(si, ti, metric)
		}
		t.Rows[ti] = TableRow{Label: tech, Values: row}
	}
	return t
}

// byBenchmarkFigure builds a Figure 6 style table at a fixed cache size:
// columns are benchmarks, rows are technique configurations.
func (s *Sweep) byBenchmarkFigure(title, unit string, sizeMB int, metric metricFunc) Table {
	benches := s.Options.Benchmarks
	t := Table{Title: title, Unit: unit, Columns: slices.Clone(benches), Rows: make([]TableRow, len(s.names))}
	si := slices.Index(s.Options.CacheSizesMB, sizeMB)
	values := make([]float64, len(s.names)*len(benches))
	for ti, tech := range s.names {
		row := values[ti*len(benches) : (ti+1)*len(benches) : (ti+1)*len(benches)]
		if si >= 0 {
			for bi := range benches {
				if r := s.at(bi, si, ti); r != nil {
					row[bi] = metric(r, s.at(bi, si, -1))
				}
			}
		}
		t.Rows[ti] = TableRow{Label: tech, Values: row}
	}
	return t
}

// Metric functions shared by the figures.

func metricOccupation(r, _ *core.Result) float64 { return r.L2OccupationRate }

func metricMissRate(r, _ *core.Result) float64 { return r.L2MissRate }

func metricBandwidthIncrease(r, b *core.Result) float64 {
	return core.Compare(*r, *b).BandwidthIncrease
}

func metricAMATIncrease(r, b *core.Result) float64 {
	return core.Compare(*r, *b).AMATIncrease
}

func metricEnergyReduction(r, b *core.Result) float64 {
	return core.Compare(*r, *b).EnergyReduction
}

func metricIPCLoss(r, b *core.Result) float64 {
	return core.Compare(*r, *b).IPCLoss
}

// Figure3a reproduces the L2 occupation rate figure.
func (s *Sweep) Figure3a() Table {
	return s.bySizeFigure("Figure 3a — L2 occupation rate", "fraction", metricOccupation)
}

// Figure3b reproduces the aggregate L2 miss-rate figure.
func (s *Sweep) Figure3b() Table {
	return s.bySizeFigure("Figure 3b — L2 miss rate", "fraction", metricMissRate)
}

// Figure4a reproduces the memory-bandwidth-increase figure.
func (s *Sweep) Figure4a() Table {
	return s.bySizeFigure("Figure 4a — memory bandwidth increase", "fraction vs baseline", metricBandwidthIncrease)
}

// Figure4b reproduces the AMAT-increase figure.
func (s *Sweep) Figure4b() Table {
	return s.bySizeFigure("Figure 4b — AMAT increase", "fraction vs baseline", metricAMATIncrease)
}

// Figure5a reproduces the system energy-reduction figure.
func (s *Sweep) Figure5a() Table {
	return s.bySizeFigure("Figure 5a — energy reduction", "fraction vs baseline", metricEnergyReduction)
}

// Figure5b reproduces the IPC-loss figure.
func (s *Sweep) Figure5b() Table {
	return s.bySizeFigure("Figure 5b — IPC loss", "fraction vs baseline", metricIPCLoss)
}

// Figure6a reproduces the per-benchmark energy reduction at the given total
// cache size (the paper uses 4 MB).
func (s *Sweep) Figure6a(sizeMB int) Table {
	return s.byBenchmarkFigure(fmt.Sprintf("Figure 6a — energy reduction per benchmark (%dMB)", sizeMB),
		"fraction vs baseline", sizeMB, metricEnergyReduction)
}

// Figure6b reproduces the per-benchmark IPC loss at the given cache size.
func (s *Sweep) Figure6b(sizeMB int) Table {
	return s.byBenchmarkFigure(fmt.Sprintf("Figure 6b — IPC loss per benchmark (%dMB)", sizeMB),
		"fraction vs baseline", sizeMB, metricIPCLoss)
}

// AllFigures returns every figure of the evaluation in paper order, using
// 4 MB for the per-benchmark figures when available (otherwise the largest
// swept size).
func (s *Sweep) AllFigures() []Table {
	fig6Size := 4
	if !slices.Contains(s.Options.CacheSizesMB, 4) && len(s.Options.CacheSizesMB) > 0 {
		fig6Size = s.Options.CacheSizesMB[len(s.Options.CacheSizesMB)-1]
	}
	return []Table{
		s.Figure3a(), s.Figure3b(),
		s.Figure4a(), s.Figure4b(),
		s.Figure5a(), s.Figure5b(),
		s.Figure6a(fig6Size), s.Figure6b(fig6Size),
	}
}
