// Package netlist synthesizes gate-level netlists with the statistical
// profile of the paper's case study — an OpenRISC processor core (caches
// excluded) mapped onto a standard-cell library. Only the aggregate cell
// mix matters for the yield models (transistor width distribution, critical
// device density, lateral offset usage), so a netlist is a deterministic
// multiset of cell instances.
//
//yield:compute
package netlist

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/cnfet/yieldlab/internal/celllib"
)

// Netlist is a multiset of cell instances.
type Netlist struct {
	// Design names the netlist.
	Design string
	// Counts maps cell name → instance count.
	Counts map[string]int
}

// mixEntry is one line of the OpenRISC-class cell mix (fractions of total
// instances; normalized at build time).
type mixEntry struct {
	cell string
	frac float64
}

// openRISCMix is the frozen cell mix of the synthetic OpenRISC core:
// NAND/NOR-dominated control logic, a healthy register count (~19 %
// sequential instances), and a sprinkle of wide arithmetic cells. The mix
// only references cells present in both synthetic libraries.
func openRISCMix() []mixEntry {
	return []mixEntry{
		{"INV_X1", 8.0}, {"INV_X2", 3.0}, {"INV_X4", 1.5},
		{"BUF_X1", 2.0}, {"BUF_X2", 1.0}, {"CLKBUF_X4", 0.8},
		{"NAND2_X1", 14.0}, {"NAND2_X2", 3.0}, {"NAND3_X1", 4.0}, {"NAND4_X1", 2.0},
		{"NOR2_X1", 8.0}, {"NOR2_X2", 2.0}, {"NOR3_X1", 2.5},
		{"AOI21_X1", 5.0}, {"AOI22_X1", 3.5}, {"OAI21_X1", 4.5}, {"OAI22_X1", 3.0},
		{"AOI221_X1", 1.0}, {"AOI221_X2", 0.4}, {"AOI222_X1", 0.7},
		{"OAI221_X1", 1.0}, {"OAI221_X2", 0.4}, {"OAI222_X1", 0.7},
		{"AOI211_X1", 0.8}, {"OAI211_X1", 0.8}, {"OAI33_X1", 0.4},
		{"AND2_X1", 2.0}, {"OR2_X1", 2.0},
		{"XOR2_X1", 2.0}, {"XOR2_X2", 0.6}, {"XNOR2_X1", 1.5}, {"XNOR2_X2", 0.5},
		{"MUX2_X1", 3.0}, {"MUX2_X2", 0.8},
		{"HA_X1", 0.8}, {"HA_X2", 0.3}, {"FA_X1", 1.5}, {"FA_X2", 0.4},
		{"DFF_X1", 12.0}, {"DFF_X2", 2.0}, {"DFFR_X1", 3.0}, {"DFFR_X2", 0.5},
		{"DFFS_X1", 0.8}, {"DFFRS_X1", 0.5}, {"SDFF_X1", 1.5}, {"SDFF_X2", 0.4},
		{"SDFFR_X1", 0.6}, {"SDFFS_X1", 0.4}, {"SDFFRS_X1", 0.3},
		{"DLH_X1", 0.5}, {"DLL_X1", 0.3}, {"TBUF_X1", 1.0},
	}
}

// OpenRISCLike builds the synthetic OpenRISC netlist with approximately the
// requested instance count, using only cells present in lib.
func OpenRISCLike(lib *celllib.Library, instances int) (*Netlist, error) {
	if lib == nil {
		return nil, errors.New("netlist: nil library")
	}
	if instances < 1 {
		return nil, fmt.Errorf("netlist: instance count %d must be positive", instances)
	}
	mix := openRISCMix()
	var total float64
	for _, m := range mix {
		if _, err := lib.Cell(m.cell); err != nil {
			return nil, fmt.Errorf("netlist: mix cell missing from library: %w", err)
		}
		total += m.frac
	}
	nl := &Netlist{
		Design: fmt.Sprintf("openrisc-like-%s", lib.Name),
		Counts: make(map[string]int, len(mix)),
	}
	for _, m := range mix {
		n := int(math.Round(m.frac / total * float64(instances)))
		if n > 0 {
			nl.Counts[m.cell] = n
		}
	}
	if nl.Instances() == 0 {
		return nil, errors.New("netlist: rounding produced an empty netlist; increase instances")
	}
	return nl, nil
}

// Instances returns the total instance count.
func (n *Netlist) Instances() int {
	t := 0
	for _, c := range n.Counts {
		t += c
	}
	return t
}

// Transistors returns the total device count against a library.
func (n *Netlist) Transistors(lib *celllib.Library) (int, error) {
	t := 0
	for name, cnt := range n.Counts {
		c, err := lib.Cell(name)
		if err != nil {
			return 0, err
		}
		t += cnt * len(c.Transistors)
	}
	return t, nil
}

// CellNames returns the used cell names, sorted.
func (n *Netlist) CellNames() []string {
	out := make([]string, 0, len(n.Counts))
	for name := range n.Counts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Usage returns instance counts as float weights (for offset statistics).
func (n *Netlist) Usage() map[string]float64 {
	out := make(map[string]float64, len(n.Counts))
	for name, c := range n.Counts {
		out[name] = float64(c)
	}
	return out
}

// ShareBelow returns the fraction of the design's transistors whose width
// is strictly below w — the empirical counterpart of the frozen Fig. 2.2a
// distribution's Mmin/M estimate.
func (n *Netlist) ShareBelow(lib *celllib.Library, w float64) (float64, error) {
	below, total := 0, 0
	for name, cnt := range n.Counts {
		c, err := lib.Cell(name)
		if err != nil {
			return 0, err
		}
		for _, t := range c.Transistors {
			total += cnt
			if t.WidthNM < w {
				below += cnt
			}
		}
	}
	if total == 0 {
		return 0, errors.New("netlist: no transistors")
	}
	return float64(below) / float64(total), nil
}
