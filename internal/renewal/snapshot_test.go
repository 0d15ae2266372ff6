package renewal

import (
	"testing"

	"github.com/cnfet/yieldlab/internal/dist"
)

// A snapshot moves a whole table or nothing: an unswept model snapshots
// empty, a partial table is refused, a whole one answers every width
// without a sweep (or the grid binning only a sweep needs), and restoring into a model that holds its table already
// keeps the installed one.
func TestRestoreWholeTableOnly(t *testing.T) {
	law := dist.Exponential{Rate: 0.25}
	opts := []Option{WithStep(0.1), WithMaxWidth(40)}
	swept, err := New(law, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(swept.Snapshot().PMFs); n != 0 {
		t.Fatalf("unswept model snapshots %d PMFs, want 0", n)
	}
	if _, err := swept.CountPMF(40); err != nil {
		t.Fatal(err)
	}
	whole := swept.Snapshot()
	if n := len(whole.PMFs); n != swept.fullHorizon() {
		t.Fatalf("snapshot holds %d PMFs, want the full horizon %d", n, swept.fullHorizon())
	}

	fresh, err := New(law, opts...)
	if err != nil {
		t.Fatal(err)
	}
	partial := *whole
	partial.PMFs = whole.PMFs[:len(whole.PMFs)-1]
	if err := fresh.Restore(&partial); err == nil {
		t.Fatal("restore of a partial table succeeded")
	}
	if err := fresh.Restore(whole); err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0.01, 0.1, 20, 40} {
		a, err := swept.CountPMF(w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.CountPMF(w)
		if err != nil {
			t.Fatal(err)
		}
		if &a.P[0] != &b.P[0] {
			t.Fatalf("w=%g: restored model does not serve the snapshot's PMF", w)
		}
	}
	if n := fresh.Sweeps(); n != 0 {
		t.Fatalf("restored model ran %d sweeps, want 0", n)
	}
	// Only a sweep reads the grid masses, so only a sweep bins them.
	if fresh.fMass != nil || fresh.gMass != nil {
		t.Fatal("restored model binned its grid without sweeping")
	}
	if swept.fMass == nil || swept.gMass == nil {
		t.Fatal("swept model holds no grid masses")
	}

	other, err := New(law, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.CountPMF(40); err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(whole); err != nil {
		t.Fatal(err)
	}
	if got := other.Snapshot().PMFs; &got[0] == &whole.PMFs[0] {
		t.Fatal("restore replaced a swept model's own table")
	}
}
