// Package tech defines the technology nodes used by the paper's scaling
// analysis (Figs. 2.2b and 3.3): 45, 32, 22 and 16 nm. The scaling rule is
// the one stated in Section 2.2 — CNFET width distributions scale linearly
// with the node, while the inter-CNT pitch stays constant at 4 nm — which is
// exactly why the upsizing penalty explodes at scaled nodes.
//
//yield:compute
package tech

import (
	"fmt"
	"slices"
)

// Node describes one technology node.
type Node struct {
	// Name is the marketing name, e.g. "45nm".
	Name string
	// DrawnNM is the nominal feature size in nm.
	DrawnNM float64
	// CellHeightNM is the standard-cell height (12-track cells at the
	// 45 nm reference, scaled linearly).
	CellHeightNM float64
	// PolyPitchNM is the contacted gate (poly) pitch.
	PolyPitchNM float64
}

// Reference is the 45 nm node the paper evaluates on (Nangate Open Cell
// Library geometry).
var Reference = Node{Name: "45nm", DrawnNM: 45, CellHeightNM: 1400, PolyPitchNM: 190}

// paperNodes is the node table of PaperNodes, built once at package
// initialization: every spec canonicalization and node-scaled query looks a
// node up by name, and rebuilding the table formats four names each time.
var paperNodes = []Node{
	Reference,
	scaled(32),
	scaled(22),
	scaled(16),
}

// PaperNodes returns the four nodes of the scaling analysis in Fig. 2.2b,
// largest first. The slice is the caller's own copy.
func PaperNodes() []Node {
	return slices.Clone(paperNodes)
}

func scaled(drawn float64) Node {
	s := drawn / Reference.DrawnNM
	return Node{
		Name:         fmt.Sprintf("%.0fnm", drawn),
		DrawnNM:      drawn,
		CellHeightNM: Reference.CellHeightNM * s,
		PolyPitchNM:  Reference.PolyPitchNM * s,
	}
}

// ByName returns the node with the given name from PaperNodes.
func ByName(name string) (Node, error) {
	for _, n := range paperNodes {
		if n.Name == name {
			return n, nil
		}
	}
	return Node{}, fmt.Errorf("tech: unknown node %q", name)
}

// Scale returns the linear shrink factor relative to the 45 nm reference
// node (1.0 at 45 nm, 16/45 ≈ 0.356 at 16 nm).
func (n Node) Scale() float64 { return n.DrawnNM / Reference.DrawnNM }

// ScaleWidth maps a 45 nm-reference transistor width to this node under the
// paper's linear-width scaling rule.
func (n Node) ScaleWidth(w45 float64) float64 { return w45 * n.Scale() }

// Validate checks the node is physically sensible.
func (n Node) Validate() error {
	if !(n.DrawnNM > 0) || !(n.CellHeightNM > 0) || !(n.PolyPitchNM > 0) {
		return fmt.Errorf("tech: node %q has non-positive geometry", n.Name)
	}
	return nil
}
