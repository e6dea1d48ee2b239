package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Table is a simple aligned-text table for experiment output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// WriteCSV writes the table as CSV (no quoting needed for our numeric
// content; commas in cells are replaced by semicolons defensively).
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// traceSeries is one named, unit-annotated series of a figure's trace.
type traceSeries struct {
	name, unit string
	vals       []float64
}

// traceTable lays traces out in long form, one row per sample: series
// name and unit, the sample's RFC 3339 timestamp, its seconds since the
// earliest sample and its value, series in argument order and samples
// in slice order. vals[i] of every series is sampled at times[i].
func traceTable(times []time.Time, series ...traceSeries) *Table {
	t := &Table{Header: []string{"series", "unit", "timestamp", "seconds", "value"}}
	var start time.Time
	for i, at := range times {
		if i == 0 || at.Before(start) {
			start = at
		}
	}
	for _, s := range series {
		for i, v := range s.vals {
			t.AddRow(s.name, s.unit, times[i].Format(time.RFC3339),
				fmt.Sprintf("%.3f", times[i].Sub(start).Seconds()), fmt.Sprintf("%g", v))
		}
	}
	return t
}

// heatShades orders ASCII shades from light (high values get light shades
// in the paper's bandwidth heatmaps, where light = high available
// bandwidth) to dark.
var heatShades = []byte{' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'}

// Heatmap renders vals (a square or rectangular matrix) as an ASCII
// heatmap, one labelled row per line. When invert is true, high values
// map to dark shades (the paper's complement-of-bandwidth convention:
// larger number = darker = less available bandwidth).
func Heatmap(rowLabels []string, vals [][]float64, invert bool) string {
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, row := range vals {
		for _, v := range row {
			if math.IsNaN(v) {
				continue
			}
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	if math.IsInf(minV, 1) {
		minV, maxV = 0, 0
	}
	span := maxV - minV
	shade := func(v float64) byte {
		if math.IsNaN(v) {
			return '?'
		}
		frac := 0.0
		if span > 0 {
			frac = (v - minV) / span
		}
		if invert {
			frac = 1 - frac
		}
		idx := int(frac * float64(len(heatShades)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(heatShades) {
			idx = len(heatShades) - 1
		}
		return heatShades[idx]
	}
	labelW := 0
	for _, l := range rowLabels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var b strings.Builder
	for i, row := range vals {
		label := ""
		if i < len(rowLabels) {
			label = rowLabels[i]
		}
		fmt.Fprintf(&b, "%-*s |", labelW, label)
		for _, v := range row {
			b.WriteByte(shade(v))
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// Fmt helpers used across experiment output.

// Sec formats a duration in seconds with two decimals.
func Sec(v float64) string { return fmt.Sprintf("%.2f", v) }

// Pct formats a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// F3 formats with three significant decimals.
func F3(v float64) string { return fmt.Sprintf("%.3f", v) }
