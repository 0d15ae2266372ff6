package tech

import (
	"math"
	"testing"
)

func TestPaperNodes(t *testing.T) {
	nodes := PaperNodes()
	if len(nodes) != 4 {
		t.Fatalf("nodes: %d", len(nodes))
	}
	want := []float64{45, 32, 22, 16}
	for i, n := range nodes {
		if n.DrawnNM != want[i] {
			t.Errorf("node %d drawn %v want %v", i, n.DrawnNM, want[i])
		}
		if err := n.Validate(); err != nil {
			t.Errorf("node %s: %v", n.Name, err)
		}
	}
}

func TestScaleFactors(t *testing.T) {
	if Reference.Scale() != 1 {
		t.Fatal("reference scale should be 1")
	}
	n16, err := ByName("16nm")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n16.Scale()-16.0/45) > 1e-15 {
		t.Fatalf("16nm scale: %v", n16.Scale())
	}
	if math.Abs(n16.ScaleWidth(90)-32) > 1e-12 {
		t.Fatalf("scaled width: %v", n16.ScaleWidth(90))
	}
	// Geometry scales with the node.
	if math.Abs(n16.CellHeightNM-Reference.CellHeightNM*16/45) > 1e-9 {
		t.Fatalf("cell height: %v", n16.CellHeightNM)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("7nm"); err == nil {
		t.Fatal("unknown node should error")
	}
}

func TestValidate(t *testing.T) {
	bad := Node{Name: "bad", DrawnNM: 0, CellHeightNM: 1, PolyPitchNM: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero drawn should error")
	}
}

// TestNodeTableFrozen checks lookups read the table built at package
// initialization — no allocation per call — and that PaperNodes hands out
// a copy callers cannot use to corrupt it.
func TestNodeTableFrozen(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { _, _ = ByName("22nm") }); allocs != 0 {
		t.Fatalf("ByName allocates %v per call", allocs)
	}
	nodes := PaperNodes()
	nodes[2].Name = "mutated"
	if n, err := ByName("22nm"); err != nil || n.DrawnNM != 22 {
		t.Fatalf("ByName(22nm) after mutating a PaperNodes copy = %+v, %v", n, err)
	}
	if PaperNodes()[2].Name != "22nm" {
		t.Fatal("PaperNodes returned the shared table")
	}
}
