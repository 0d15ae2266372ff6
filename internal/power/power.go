// Package power quantifies the cost of the Wmin upsizing strategy: the
// paper measures it as the percentage increase of total gate capacitance
// (a proxy for both dynamic and static power, Section 2.2), and sweeps it
// across technology nodes under the rule that transistor widths scale with
// the node while the inter-CNT pitch stays at 4 nm (Figs. 2.2b and 3.3).
//
//yield:compute
package power

import (
	"errors"
	"fmt"

	"github.com/cnfet/yieldlab/internal/tech"
	"github.com/cnfet/yieldlab/internal/widthdist"
)

// CapModel converts transistor width to gate capacitance. The penalty ratio
// is insensitive to the per-width constant but the fringe term matters: with
// fringe capacitance, upsizing hurts slightly less in relative terms.
type CapModel struct {
	// AttoFaradPerNM is the width-proportional gate capacitance (aF/nm of
	// width). ~0.94 aF/nm reproduces ~1 fF/µm gate loading at 45 nm-class
	// gate stacks.
	AttoFaradPerNM float64
	// FringeAttoFarad is the width-independent per-transistor term.
	FringeAttoFarad float64
}

// DefaultCapModel returns the gate-capacitance model used by the
// experiments. The paper reports pure percentages, equivalent to a zero
// fringe term, so the default keeps fringe at zero; the fringe knob exists
// for sensitivity studies.
func DefaultCapModel() CapModel {
	return CapModel{AttoFaradPerNM: 0.94, FringeAttoFarad: 0}
}

// Validate checks the model.
func (c CapModel) Validate() error {
	if !(c.AttoFaradPerNM > 0) {
		return fmt.Errorf("power: capacitance slope %g must be positive", c.AttoFaradPerNM)
	}
	if c.FringeAttoFarad < 0 {
		return fmt.Errorf("power: fringe capacitance %g must be ≥ 0", c.FringeAttoFarad)
	}
	return nil
}

// MeanGateCap returns the mean per-transistor gate capacitance over a width
// distribution with every device upsized to at least wt (wt ≤ 0 disables
// upsizing).
func (c CapModel) MeanGateCap(d *widthdist.Distribution, wt float64) (float64, error) {
	if d == nil {
		return 0, errors.New("power: nil width distribution")
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	base := d.Mean()
	if wt > 0 {
		base = d.UpsizedMean(wt)
	}
	return c.AttoFaradPerNM*base + c.FringeAttoFarad, nil
}

// UpsizePenalty returns the fractional increase of total gate capacitance
// caused by upsizing every transistor below wt to wt — the paper's "penalty
// (%)" metric (Fig. 2.2b), as a fraction (0.12 = 12 %).
func (c CapModel) UpsizePenalty(d *widthdist.Distribution, wt float64) (float64, error) {
	before, err := c.MeanGateCap(d, 0)
	if err != nil {
		return 0, err
	}
	after, err := c.MeanGateCap(d, wt)
	if err != nil {
		return 0, err
	}
	return after/before - 1, nil
}

// NodePenalty is one bar of the scaling charts.
type NodePenalty struct {
	Node tech.Node
	// Penalty is the fractional gate-capacitance increase.
	Penalty float64
}

// ScalingSweep computes the upsizing penalty at each node: the 45 nm-
// reference width distribution scales linearly with the node while the
// threshold wt (set by the CNT pitch physics) does not scale. This is the
// mechanism behind the explosive growth of the penalty in Fig. 2.2b.
func (c CapModel) ScalingSweep(d45 *widthdist.Distribution, wt float64, nodes []tech.Node) ([]NodePenalty, error) {
	if d45 == nil {
		return nil, errors.New("power: nil width distribution")
	}
	if !(wt > 0) {
		return nil, fmt.Errorf("power: threshold %g must be positive", wt)
	}
	out := make([]NodePenalty, 0, len(nodes))
	for _, n := range nodes {
		scaled, err := d45.Scale(n)
		if err != nil {
			return nil, fmt.Errorf("power: scaling to %s: %w", n.Name, err)
		}
		p, err := c.UpsizePenalty(scaled, wt)
		if err != nil {
			return nil, err
		}
		out = append(out, NodePenalty{Node: n, Penalty: p})
	}
	return out, nil
}
