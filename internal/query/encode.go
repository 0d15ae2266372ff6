package query

import (
	"encoding/json"
	"io"
	"math"

	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/report"
)

// JSON encodings of experiment artifacts, shared by the server's job and
// /v2/query responses, the CLI's -json and -spec modes and the library's
// WriteResultsJSON, so scripted consumers see one schema.
//
// Floating-point paper references may be NaN ("the paper gives no number");
// encoding/json rejects NaN, so those fields are pointers encoded as null.

// TableJSON mirrors report.Table.
type TableJSON struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// ComparisonJSON mirrors report.Comparison plus the derived verdict.
type ComparisonJSON struct {
	Artifact string   `json:"artifact"`
	Quantity string   `json:"quantity"`
	Paper    *float64 `json:"paper"` // null when the paper gives no number
	Measured float64  `json:"measured"`
	Unit     string   `json:"unit,omitempty"`
	// TolFactor is the acceptance band (2 = within 2× either way; 0 = none).
	TolFactor float64 `json:"tol_factor,omitempty"`
	Within    bool    `json:"within_tolerance"`
}

// ResultJSON is one experiment's output.
type ResultJSON struct {
	Name        string            `json:"name"`
	Table       *TableJSON        `json:"table,omitempty"`
	Charts      []string          `json:"charts,omitempty"`
	Comparisons []ComparisonJSON  `json:"comparisons,omitempty"`
	CSVs        map[string]string `json:"csvs,omitempty"`
	SVGs        map[string]string `json:"svgs,omitempty"`
}

// encodeTable converts a report table (nil in, nil out).
func encodeTable(t *report.Table) *TableJSON {
	if t == nil {
		return nil
	}
	return &TableJSON{Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes}
}

// encodeComparisons converts a comparison set (nil in, nil out).
func encodeComparisons(s *report.ComparisonSet) []ComparisonJSON {
	if s == nil {
		return nil
	}
	out := make([]ComparisonJSON, 0, len(s.Records))
	for _, c := range s.Records {
		cj := ComparisonJSON{
			Artifact:  c.Artifact,
			Quantity:  c.Quantity,
			Measured:  c.Measured,
			Unit:      c.Unit,
			TolFactor: c.TolFactor,
			Within:    c.WithinTolerance(),
		}
		if !math.IsNaN(c.Paper) {
			paper := c.Paper
			cj.Paper = &paper
		}
		out = append(out, cj)
	}
	return out
}

// EncodeResult converts one experiment result.
func EncodeResult(res *experiments.Result) ResultJSON {
	return ResultJSON{
		Name:        res.Name,
		Table:       encodeTable(res.Table),
		Charts:      res.Charts,
		Comparisons: encodeComparisons(res.Comparisons),
		CSVs:        res.CSVs,
		SVGs:        res.SVGs,
	}
}

// EncodeResults converts a result list, preserving order.
func EncodeResults(results []*experiments.Result) []ResultJSON {
	out := make([]ResultJSON, 0, len(results))
	for _, res := range results {
		out = append(out, EncodeResult(res))
	}
	return out
}

// WriteResults renders results as an indented JSON array — the payload
// behind both `cnfetyield -json` and the job-result API.
func WriteResults(w io.Writer, results []*experiments.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(EncodeResults(results))
}
