package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"name", "value"}}
	if err := tb.AddRow("alpha", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow("b", "22222"); err != nil {
		t.Fatal(err)
	}
	tb.AddNote("a note %d", 7)
	out := tb.Render()
	for _, want := range []string{"demo", "name", "alpha", "22222", "note: a note 7", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// Cells holding multi-byte runes ("—", "±") pad by rune count, so every
// column starts at the same display offset on every line.
func TestTableRenderAlignsMultiByteCells(t *testing.T) {
	tb := &Table{Columns: []string{"pRF", "± stderr", "paper"}}
	for _, row := range [][]string{{"—", "—", "5.3e-06"}, {"1.95e-07", "2.9e-09", "2.0e-07"}} {
		if err := tb.AddRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	want := "" +
		"  pRF       ± stderr  paper  \n" +
		"  --------  --------  -------\n" +
		"  —         —         5.3e-06\n" +
		"  1.95e-07  2.9e-09   2.0e-07\n"
	if got := tb.Render(); got != want {
		t.Fatalf("Render =\n%s\nwant\n%s", got, want)
	}
}

func TestTableAddRowMismatch(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b"}}
	if err := tb.AddRow("only-one"); err == nil {
		t.Fatal("row width mismatch should error")
	}
}

func TestComparisonRatioAndTolerance(t *testing.T) {
	c := Comparison{Paper: 100, Measured: 110, TolFactor: 1.2}
	if math.Abs(c.Ratio()-1.1) > 1e-12 {
		t.Fatalf("ratio: %v", c.Ratio())
	}
	if !c.WithinTolerance() {
		t.Fatal("1.1 within 1.2× band")
	}
	c.Measured = 130
	if c.WithinTolerance() {
		t.Fatal("1.3 outside 1.2× band")
	}
	c.Measured = 80 // 0.8 < 1/1.2
	if c.WithinTolerance() {
		t.Fatal("0.8 outside band")
	}
	c.Measured = 90
	if !c.WithinTolerance() {
		t.Fatal("0.9 within band")
	}
	// No tolerance or no paper value: always fine.
	free := Comparison{Paper: math.NaN(), Measured: 5, TolFactor: 2}
	if !free.WithinTolerance() {
		t.Fatal("NaN paper should pass")
	}
	if !math.IsNaN(free.Ratio()) {
		t.Fatal("NaN ratio")
	}
	zero := Comparison{Paper: 0, Measured: 5}
	if !math.IsNaN(zero.Ratio()) {
		t.Fatal("zero paper ratio")
	}
	neg := Comparison{Paper: 10, Measured: -1, TolFactor: 2}
	if neg.WithinTolerance() {
		t.Fatal("negative ratio out of band")
	}
}

func TestComparisonSet(t *testing.T) {
	s := &ComparisonSet{Name: "x"}
	s.Add(Comparison{Artifact: "T1", Quantity: "good", Paper: 1, Measured: 1.05, TolFactor: 1.2})
	s.Add(Comparison{Artifact: "T1", Quantity: "bad", Paper: 1, Measured: 3, TolFactor: 1.2})
	if len(s.Failures()) != 1 || s.Failures()[0].Quantity != "bad" {
		t.Fatalf("failures: %+v", s.Failures())
	}
	tb, err := s.Table()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	if !strings.Contains(out, "✓") || !strings.Contains(out, "✗") {
		t.Fatalf("marks missing:\n%s", out)
	}
	empty := &ComparisonSet{Name: "e"}
	if _, err := empty.Table(); err == nil {
		t.Fatal("empty set should error")
	}
}

func TestFormatValue(t *testing.T) {
	if got := formatValue(3.03e-9, ""); !strings.Contains(got, "e-09") {
		t.Fatalf("tiny value: %s", got)
	}
	if got := formatValue(155, "nm"); got != "155 nm" {
		t.Fatalf("unit: %s", got)
	}
	if got := formatValue(0, ""); got != "0" {
		t.Fatalf("zero: %s", got)
	}
}
