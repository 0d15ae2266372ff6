package netlist

import (
	"math"
	"testing"

	"github.com/cnfet/yieldlab/internal/celllib"
)

func lib45(t *testing.T) *celllib.Library {
	t.Helper()
	lib, err := celllib.NangateLike45()
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestOpenRISCLikeBasics(t *testing.T) {
	lib := lib45(t)
	nl, err := OpenRISCLike(lib, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	n := nl.Instances()
	if math.Abs(float64(n)-50_000) > 100 {
		t.Fatalf("instances: %d", n)
	}
	tr := 0
	for name, cnt := range nl.Counts {
		c, err := lib.Cell(name)
		if err != nil {
			t.Fatal(err)
		}
		tr += cnt * len(c.Transistors)
	}
	if tr < 4*n {
		t.Fatalf("transistors: %d for %d instances", tr, n)
	}
	if len(nl.Counts) < 25 {
		t.Fatalf("cell variety: %d", len(nl.Counts))
	}
}

func TestOpenRISCLikeErrors(t *testing.T) {
	lib := lib45(t)
	if _, err := OpenRISCLike(nil, 100); err == nil {
		t.Error("nil library")
	}
	if _, err := OpenRISCLike(lib, 0); err == nil {
		t.Error("zero instances")
	}
	empty := &celllib.Library{Name: "empty"}
	if _, err := OpenRISCLike(empty, 100); err == nil {
		t.Error("missing mix cells")
	}
}

// The Fig. 2.2a narrative regression: roughly a third of the design's
// transistors sit below the (unoptimized) Wmin of 155 nm.
func TestShareBelowMatchesPaper(t *testing.T) {
	lib := lib45(t)
	nl, err := OpenRISCLike(lib, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	share, err := nl.ShareBelow(lib, 155)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.35-0.08 || share > 0.35+0.08 {
		t.Fatalf("share below 155 nm = %.3f, want ≈ 0.33", share)
	}
	all, _ := nl.ShareBelow(lib, 1e9)
	if all != 1 {
		t.Fatalf("share below ∞: %v", all)
	}
}

func TestUsageMatchesCounts(t *testing.T) {
	lib := lib45(t)
	nl, _ := OpenRISCLike(lib, 10_000)
	u := nl.Usage()
	for name, c := range nl.Counts {
		if u[name] != float64(c) {
			t.Fatalf("usage mismatch for %s", name)
		}
	}
}

func TestWorksOn65nmLibrary(t *testing.T) {
	lib, err := celllib.Commercial65()
	if err != nil {
		t.Fatal(err)
	}
	nl, err := OpenRISCLike(lib, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Instances() < 19_000 {
		t.Fatalf("instances: %d", nl.Instances())
	}
}
