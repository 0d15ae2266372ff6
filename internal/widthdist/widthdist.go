// Package widthdist models the transistor-width distribution of a
// synthesized design — Fig. 2.2a of the paper: the widths of all CNFETs in
// an OpenRISC core mapped to the (CNFET-modified) Nangate 45 nm Open Cell
// Library. The distribution is the workload for every chip-level result:
// the Wmin optimization (which fraction of devices sits below a threshold),
// the upsizing-penalty model (total width added), and the scaling analysis
// (widths shrink with the node while the CNT pitch does not).
//
//yield:compute
package widthdist

import (
	"errors"
	"fmt"
	"math"

	"github.com/cnfet/yieldlab/internal/numeric"
	"github.com/cnfet/yieldlab/internal/stat"
	"github.com/cnfet/yieldlab/internal/tech"
)

// Distribution is a discrete transistor-width distribution: width w[i] (nm)
// occurs with probability p[i]. Widths are strictly increasing.
type Distribution struct {
	widths []float64
	probs  []float64
}

// New validates and builds a Distribution; widths must be strictly
// increasing and positive, probabilities non-negative with positive total
// (they are normalized).
func New(widths, probs []float64) (*Distribution, error) {
	if len(widths) == 0 || len(widths) != len(probs) {
		return nil, errors.New("widthdist: widths and probs must be non-empty and equal length")
	}
	var total numeric.Kahan
	for i := range widths {
		if !(widths[i] > 0) {
			return nil, fmt.Errorf("widthdist: width %d = %g must be positive", i, widths[i])
		}
		if i > 0 && widths[i] <= widths[i-1] {
			return nil, fmt.Errorf("widthdist: widths not strictly increasing at %d", i)
		}
		if probs[i] < 0 || math.IsNaN(probs[i]) {
			return nil, fmt.Errorf("widthdist: probability %d = %g invalid", i, probs[i])
		}
		total.Add(probs[i])
	}
	s := total.Sum()
	if !(s > 0) {
		return nil, errors.New("widthdist: zero total probability")
	}
	ws := make([]float64, len(widths))
	ps := make([]float64, len(probs))
	copy(ws, widths)
	for i, p := range probs {
		ps[i] = p / s
	}
	return &Distribution{widths: ws, probs: ps}, nil
}

// OpenRISC45 returns the frozen width distribution of the paper's case
// study: an OpenRISC core (no caches) synthesized onto the CNFET-modified
// Nangate 45 nm library, reported in Fig. 2.2a as a 40 nm-bin histogram.
//
// Shape constraints encoded here (see EXPERIMENTS.md):
//   - the two left-most bins ([40,80) and [80,120) nm) hold 13 % + 20 % =
//     33 % of all transistors — the paper's Mmin estimate;
//   - the [120,160) bin is empty, reflecting the discrete drive-strength
//     jump of a standard-cell library; this is what makes the paper's
//     consistency check work (Wmin ≈ 155 nm upsizes exactly the two left
//     bins and nothing else);
//   - the overall mean (≈ 211 nm) is calibrated so the upsizing penalty
//     lands in the published band at both ends of the scaling sweep of
//     Fig. 2.2b (≈ 11 % at 45 nm, ≈ 105–110 % at 16 nm).
func OpenRISC45() *Distribution {
	d, err := New(
		[]float64{60, 100, 180, 220, 260, 300, 340, 380, 420},
		[]float64{13, 20, 15, 12, 11, 10, 8, 6, 5},
	)
	if err != nil {
		panic("widthdist: frozen OpenRISC45 distribution invalid: " + err.Error())
	}
	return d
}

// Widths returns a copy of the support.
func (d *Distribution) Widths() []float64 {
	out := make([]float64, len(d.widths))
	copy(out, d.widths)
	return out
}

// Probs returns a copy of the probabilities.
func (d *Distribution) Probs() []float64 {
	out := make([]float64, len(d.probs))
	copy(out, d.probs)
	return out
}

// Len returns the number of widths in the support.
func (d *Distribution) Len() int { return len(d.widths) }

// At returns the i-th width of the support (0 ≤ i < Len) and its
// probability: a read-only view of the distribution that, unlike Widths
// and Probs, copies nothing.
func (d *Distribution) At(i int) (width, prob float64) { return d.widths[i], d.probs[i] }

// Mean returns the mean transistor width.
func (d *Distribution) Mean() float64 {
	var acc numeric.Kahan
	for i := range d.widths {
		acc.Add(d.widths[i] * d.probs[i])
	}
	return acc.Sum()
}

// MinWidth returns the smallest width in the support.
func (d *Distribution) MinWidth() float64 { return d.widths[0] }

// MaxWidth returns the largest width in the support.
func (d *Distribution) MaxWidth() float64 { return d.widths[len(d.widths)-1] }

// ShareBelow returns the fraction of transistors with width strictly below
// w: the "Mmin / M" estimate for a threshold at w.
func (d *Distribution) ShareBelow(w float64) float64 {
	var acc numeric.Kahan
	for i := range d.widths {
		if d.widths[i] < w {
			acc.Add(d.probs[i])
		}
	}
	return acc.Sum()
}

// Scale returns the distribution mapped to another technology node under
// the paper's rule: widths scale linearly with the node while the CNT pitch
// stays fixed.
func (d *Distribution) Scale(n tech.Node) (*Distribution, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	ws := make([]float64, len(d.widths))
	for i, w := range d.widths {
		ws[i] = n.ScaleWidth(w)
	}
	return New(ws, d.probs)
}

// UpsizedMean returns the mean width after applying the upsizing function
// U_Wt(W) = max(W, Wt) of Eq. 2.4 to every transistor.
func (d *Distribution) UpsizedMean(wt float64) float64 {
	var acc numeric.Kahan
	for i := range d.widths {
		acc.Add(math.Max(d.widths[i], wt) * d.probs[i])
	}
	return acc.Sum()
}

// Histogram renders the distribution into a stat.Histogram with the paper's
// 40 nm bins (Fig. 2.2a) scaled to the distribution's range.
func (d *Distribution) Histogram(binWidth float64) (*stat.Histogram, error) {
	if !(binWidth > 0) {
		return nil, fmt.Errorf("widthdist: bin width %g must be positive", binWidth)
	}
	lo := binWidth * math.Floor(d.MinWidth()/binWidth)
	hi := binWidth * math.Ceil(d.MaxWidth()/binWidth)
	n := int(math.Round((hi - lo) / binWidth))
	if n < 1 {
		n = 1
	}
	h, err := stat.NewHistogram(numeric.Linspace(lo, hi, n+1))
	if err != nil {
		return nil, err
	}
	for i := range d.widths {
		h.AddWeighted(d.widths[i], d.probs[i])
	}
	return h, nil
}
