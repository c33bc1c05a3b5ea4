// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment produces the same rows or series
// the paper reports, using real execution of the full code path at
// laptop-scale problem sizes and the calibrated discrete-event simulator
// (internal/dessim) for the 1024-GPU configurations that need the ABCI
// supercomputer. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"strings"

	"distfdk/internal/dataset"
	"distfdk/internal/forward"
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
)

// Table is a rendered experiment result: a titled grid plus free-form
// notes.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scenario is a ready-to-reconstruct scaled dataset: geometry, synthetic
// projections and a source.
type Scenario struct {
	DS     *dataset.Dataset
	Sys    *geometry.System
	Stack  *projection.Stack
	Source projection.Source
}

// BuildScenario synthesises a laptop-scale twin of a paper dataset: the
// registry geometry shrunk by div, an outN³ output grid, and analytic
// forward projections of the dataset's phantom.
func BuildScenario(name string, div, outN, workers int) (*Scenario, error) {
	scaled, sys, err := ScaledSystem(name, div, outN)
	if err != nil {
		return nil, err
	}
	stack, err := forward.Project(sys, scaled.Phantom(), scaled.FOV/2, workers)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		DS: scaled, Sys: sys, Stack: stack,
		Source: &projection.MemorySource{Full: stack},
	}, nil
}

// ScaledSystem resolves a scenario's geometry alone — the registry entry
// shrunk by div and its system with an outN³ output grid — for callers that
// bring their own projections.
func ScaledSystem(name string, div, outN int) (*dataset.Dataset, *geometry.System, error) {
	ds, err := dataset.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	scaled, err := ds.Scaled(div)
	if err != nil {
		return nil, nil, err
	}
	sys, err := scaled.System(outN)
	if err != nil {
		return nil, nil, err
	}
	return scaled, sys, nil
}

// BuildScenarioGeometryOnly returns the full-size dataset entry without
// synthesising projections (for registry-style experiments).
func BuildScenarioGeometryOnly(name string) (*dataset.Dataset, error) {
	return dataset.ByName(name)
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// fmtSeconds renders a duration in seconds with sensible precision.
func fmtSeconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f s", s)
	case s >= 1:
		return fmt.Sprintf("%.1f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.1f ms", s*1e3)
	}
	return fmt.Sprintf("%.0f µs", s*1e6)
}
