package celllib

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNangateLike45Shape(t *testing.T) {
	lib, err := NangateLike45()
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Cells) != 134 {
		t.Fatalf("cells: %d", len(lib.Cells))
	}
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	transistors := 0
	for i := range lib.Cells {
		transistors += len(lib.Cells[i].Transistors)
	}
	if transistors < 800 {
		t.Fatalf("suspiciously few transistors: %d", transistors)
	}
	// The Fig. 3.2 cell must exist.
	aoi, err := lib.Cell("AOI222_X1")
	if err != nil {
		t.Fatal(err)
	}
	if aoi.Function != "AOI222" || aoi.Drive != 1 {
		t.Fatalf("AOI222_X1 metadata: %+v", aoi)
	}
	// It must contain a folded (stacked) device pair: two same-type
	// devices in one column at different offsets.
	found := false
	for _, a := range aoi.Transistors {
		for _, b := range aoi.Transistors {
			if a.Name != b.Name && a.Type == b.Type && a.Column == b.Column && a.YOffsetNM != b.YOffsetNM {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("AOI222_X1 should have stacked devices")
	}
}

func TestCommercial65Shape(t *testing.T) {
	lib, err := Commercial65()
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Cells) != 775 {
		t.Fatalf("cells: %d", len(lib.Cells))
	}
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	if lib.NodeNM != 65 {
		t.Fatalf("node: %v", lib.NodeNM)
	}
	// Scaled geometry: the 65 nm INV_X1 is 65/45 bigger than the 45 nm one.
	n45, _ := NangateLike45()
	a, _ := n45.Cell("INV_X1")
	b, err := lib.Cell("INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.WidthNM/a.WidthNM-65.0/45) > 1e-9 {
		t.Fatalf("scale: %v", b.WidthNM/a.WidthNM)
	}
}

func TestLibraryDeterminism(t *testing.T) {
	a, err := NangateLike45()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NangateLike45()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if a.Cells[i].Name != b.Cells[i].Name || a.Cells[i].WidthNM != b.Cells[i].WidthNM {
			t.Fatalf("generator not deterministic at %d", i)
		}
		for j := range a.Cells[i].Transistors {
			if a.Cells[i].Transistors[j] != b.Cells[i].Transistors[j] {
				t.Fatalf("transistor mismatch in %s", a.Cells[i].Name)
			}
		}
	}
}

func TestOffsetsOnGrid(t *testing.T) {
	lib, err := NangateLike45()
	if err != nil {
		t.Fatal(err)
	}
	for i := range lib.Cells {
		for _, tr := range lib.Cells[i].Transistors {
			base := math.Mod(tr.YOffsetNM, OffsetGridNM)
			if base > 1e-9 && math.Abs(base-OffsetGridNM) > 1e-9 {
				t.Fatalf("%s %s offset %v not on %v grid", lib.Cells[i].Name, tr.Name, tr.YOffsetNM, OffsetGridNM)
			}
		}
	}
}

func TestNoStackingViolationsInGeneratedLibraries(t *testing.T) {
	for _, build := range []func() (*Library, error){NangateLike45, Commercial65} {
		lib, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for ci := range lib.Cells {
			c := &lib.Cells[ci]
			for a := 0; a < len(c.Transistors); a++ {
				for b := a + 1; b < len(c.Transistors); b++ {
					ta, tb := c.Transistors[a], c.Transistors[b]
					if ta.Type != tb.Type || ta.Column != tb.Column {
						continue
					}
					if ta.YOffsetNM < tb.YOffsetNM+tb.WidthNM && tb.YOffsetNM < ta.YOffsetNM+ta.WidthNM {
						t.Fatalf("%s/%s: %s and %s overlap", lib.Name, c.Name, ta.Name, tb.Name)
					}
				}
			}
		}
	}
}

func TestActiveRegionsMergeAdjacent(t *testing.T) {
	lib, _ := NangateLike45()
	// NAND2_X1: two same-width devices per type on adjacent columns → one
	// region per type.
	c, err := lib.Cell("NAND2_X1")
	if err != nil {
		t.Fatal(err)
	}
	regions := c.ActiveRegions()
	nRegions := 0
	for _, r := range regions {
		if r.Type == NFET {
			nRegions++
			if len(r.Transistors) != 2 {
				t.Fatalf("NAND2 n-region should hold both devices: %+v", r)
			}
			if !(r.X1NM > r.X0NM) {
				t.Fatalf("degenerate region: %+v", r)
			}
		}
	}
	if nRegions != 1 {
		t.Fatalf("NAND2 n-regions: %d", nRegions)
	}
	// AOI222_X1 has folds: more than one n-region.
	aoi, _ := lib.Cell("AOI222_X1")
	nRegions = 0
	for _, r := range aoi.ActiveRegions() {
		if r.Type == NFET {
			nRegions++
		}
	}
	if nRegions < 2 {
		t.Fatalf("AOI222_X1 n-regions: %d", nRegions)
	}
}

func TestLibraryCellLookup(t *testing.T) {
	lib, _ := NangateLike45()
	if _, err := lib.Cell("NO_SUCH_CELL"); err == nil {
		t.Fatal("missing cell should error")
	}
}

func TestCellValidateCatchesBadGeometry(t *testing.T) {
	bad := Cell{Name: "", WidthNM: 100, HeightNM: 100}
	if bad.Validate() == nil {
		t.Error("empty name")
	}
	bad = Cell{Name: "X", WidthNM: 0, HeightNM: 100}
	if bad.Validate() == nil {
		t.Error("zero width")
	}
	bad = Cell{Name: "X", WidthNM: 100, HeightNM: 100, PolyPitchNM: 190,
		Transistors: []Transistor{{Name: "M", WidthNM: 10, Column: 5}}}
	if bad.Validate() == nil {
		t.Error("column outside cell")
	}
	bad = Cell{Name: "X", WidthNM: 400, HeightNM: 100, PolyPitchNM: 190,
		Transistors: []Transistor{{Name: "M", WidthNM: -1, Column: 0}}}
	if bad.Validate() == nil {
		t.Error("negative device width")
	}
	dup := Library{Cells: []Cell{
		{Name: "A", WidthNM: 1, HeightNM: 1},
		{Name: "A", WidthNM: 1, HeightNM: 1},
	}}
	if dup.Validate() == nil {
		t.Error("duplicate names")
	}
}

func TestCriticalNFETOffsets(t *testing.T) {
	lib, _ := NangateLike45()
	od, err := CriticalNFETOffsets(lib, nil, 109)
	if err != nil {
		t.Fatal(err)
	}
	// Library-wide, most of the 14 grid slots should be in use — the
	// premise of the Table 1 partial-correlation scenario.
	if od.DistinctCount() < 10 {
		t.Fatalf("distinct offsets: %d, want most of the %d slots", od.DistinctCount(), OffsetSlots)
	}
	// Usage weighting restricted to one cell collapses the distribution.
	dff, _ := lib.Cell("DFF_X1")
	odOne, err := CriticalNFETOffsets(lib, map[string]float64{"DFF_X1": 1}, 109)
	if err != nil {
		t.Fatal(err)
	}
	if odOne.DistinctCount() != 1 {
		t.Fatalf("single-cell offsets: %d (cell %s)", odOne.DistinctCount(), dff.Name)
	}
	if _, err := CriticalNFETOffsets(nil, nil, 109); err == nil {
		t.Error("nil library")
	}
	if _, err := CriticalNFETOffsets(lib, nil, 0); err == nil {
		t.Error("zero Wmin")
	}
	if _, err := CriticalNFETOffsets(lib, nil, 1); err == nil {
		t.Error("nothing critical below 1 nm")
	}
}

// Property: every generated cell name is FUNCTION_Xdrive.
func TestQuickCellNaming(t *testing.T) {
	lib, _ := NangateLike45()
	f := func(idx uint16) bool {
		c := lib.Cells[int(idx)%len(lib.Cells)]
		return strings.Contains(c.Name, "_X") && strings.HasPrefix(c.Name, c.Function)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
