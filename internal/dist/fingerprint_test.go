package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestFingerprintDistinguishesLawsAndParams(t *testing.T) {
	tnA, err := NewTruncNormal(0, 9.2, 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	tnB, err := NewTruncNormal(0.5, 9.2, 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	laws := []Continuous{
		Exponential{Rate: 0.25},
		Exponential{Rate: 0.5},
		Deterministic{V: 4},
		Deterministic{V: 0.25}, // must not collide with Exponential{0.25}
		tnA,
		tnB,
	}
	seen := map[string]int{}
	for i, law := range laws {
		fp, ok := Fingerprint(law)
		if !ok {
			t.Fatalf("law %d (%T) has no fingerprint", i, law)
		}
		if fp == "" {
			t.Fatalf("law %d (%T): empty fingerprint", i, law)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("laws %d and %d share fingerprint %q", prev, i, fp)
		}
		seen[fp] = i
	}
}

func TestFingerprintStable(t *testing.T) {
	fa, _ := Fingerprint(Exponential{Rate: 0.25})
	fb, _ := Fingerprint(Exponential{Rate: 0.25})
	if fa != fb {
		t.Fatalf("equal laws, different fingerprints: %q vs %q", fa, fb)
	}
	tn1, err := TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tn2, err := TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := Fingerprint(tn1)
	f2, _ := Fingerprint(tn2)
	if f1 != f2 {
		t.Fatalf("deterministic construction should fingerprint identically: %q vs %q", f1, f2)
	}
}

func TestFingerprintAbsent(t *testing.T) {
	if _, ok := Fingerprint(hiddenLaw{Exponential{Rate: 1}}); ok {
		t.Fatal("wrapper without Fingerprint should report absence")
	}
}

// hiddenLaw forwards Continuous but deliberately not Fingerprinter.
type hiddenLaw struct{ inner Exponential }

func (h hiddenLaw) Mean() float64               { return h.inner.Mean() }
func (h hiddenLaw) StdDev() float64             { return h.inner.StdDev() }
func (h hiddenLaw) CDF(x float64) float64       { return h.inner.CDF(x) }
func (h hiddenLaw) Quantile(p float64) float64  { return h.inner.Quantile(p) }
func (h hiddenLaw) Sample(r *rand.Rand) float64 { return h.inner.Sample(r) }

func TestForwardRecurrenceForSharesTables(t *testing.T) {
	a, err := ForwardRecurrenceFor(Exponential{Rate: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ForwardRecurrenceFor(Exponential{Rate: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same law should share one sampler table")
	}
	c, err := ForwardRecurrenceFor(Exponential{Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different laws must not share a table")
	}
	// Cached and fresh tables agree.
	fresh, err := NewForwardRecurrence(Exponential{Rate: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 2, 8, 30} {
		if got, want := a.table.At(x), fresh.table.At(x); got != want {
			t.Errorf("CDF(%g): cached %g fresh %g", x, got, want)
		}
	}
	// Unfingerprinted laws still work (fresh table per call).
	u1, err := ForwardRecurrenceFor(hiddenLaw{Exponential{Rate: 0.125}})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := ForwardRecurrenceFor(hiddenLaw{Exponential{Rate: 0.125}})
	if err != nil {
		t.Fatal(err)
	}
	if u1 == u2 {
		t.Error("unfingerprinted laws must not share tables")
	}
	if _, err := ForwardRecurrenceFor(nil); err == nil {
		t.Error("nil law should error")
	}
}
