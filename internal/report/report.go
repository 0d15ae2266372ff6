// Package report formats experiment results as aligned text tables and
// tracks paper-vs-measured comparison records — the machinery behind
// EXPERIMENTS.md and the cnfetyield CLI output.
//
//yield:compute
package report

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("report: row has %d cells, table %q has %d columns",
			len(cells), t.Title, len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// AddNote attaches a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render draws the table with aligned columns. Widths count runes, not
// bytes, so cells holding "—", "±" or "×" line up with ASCII ones.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(&b, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Comparison is one paper-vs-measured record.
type Comparison struct {
	// Artifact identifies the paper table/figure ("Table 1", "Fig. 2.1").
	Artifact string
	// Quantity names the measured value.
	Quantity string
	// Paper is the published value (NaN when the paper gives no number).
	Paper float64
	// Measured is our reproduction's value.
	Measured float64
	// Unit is for display only.
	Unit string
	// TolFactor is the acceptance band as a multiplicative factor
	// (2 = within 2× either way); 0 disables the check.
	TolFactor float64
}

// Ratio returns measured/paper (NaN when the paper value is absent or 0).
func (c Comparison) Ratio() float64 {
	if c.Paper == 0 || math.IsNaN(c.Paper) {
		return math.NaN()
	}
	return c.Measured / c.Paper
}

// WithinTolerance reports whether the measurement lands inside the band.
func (c Comparison) WithinTolerance() bool {
	if c.TolFactor <= 0 || math.IsNaN(c.Paper) {
		return true
	}
	r := c.Ratio()
	if math.IsNaN(r) || r <= 0 {
		return false
	}
	return r <= c.TolFactor && r >= 1/c.TolFactor
}

// ComparisonSet collects records for one experiment.
type ComparisonSet struct {
	Name    string
	Records []Comparison
}

// Add appends a record.
func (s *ComparisonSet) Add(c Comparison) { s.Records = append(s.Records, c) }

// Failures returns the out-of-tolerance records.
func (s *ComparisonSet) Failures() []Comparison {
	var out []Comparison
	for _, c := range s.Records {
		if !c.WithinTolerance() {
			out = append(out, c)
		}
	}
	return out
}

// Table renders the comparison set as a Table.
func (s *ComparisonSet) Table() (*Table, error) {
	if len(s.Records) == 0 {
		return nil, errors.New("report: empty comparison set")
	}
	t := &Table{
		Title:   fmt.Sprintf("%s — paper vs measured", s.Name),
		Columns: []string{"artifact", "quantity", "paper", "measured", "ratio", "ok"},
	}
	for _, c := range s.Records {
		paper := "—"
		ratio := "—"
		if !math.IsNaN(c.Paper) {
			paper = formatValue(c.Paper, c.Unit)
			ratio = fmt.Sprintf("%.2f", c.Ratio())
		}
		ok := "✓"
		if !c.WithinTolerance() {
			ok = "✗"
		}
		if err := t.AddRow(c.Artifact, c.Quantity, paper, formatValue(c.Measured, c.Unit), ratio, ok); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func formatValue(v float64, unit string) string {
	var s string
	switch {
	case v != 0 && (math.Abs(v) < 1e-3 || math.Abs(v) >= 1e5):
		s = fmt.Sprintf("%.3g", v)
	default:
		s = fmt.Sprintf("%.4g", v)
	}
	if unit != "" {
		s += " " + unit
	}
	return s
}
