package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical SplitMix64 implementation
	// (Vigna), seeded with 0 and stepped three times.
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
	}
	// The helper is stateless (it takes the pre-increment state), so the
	// canonical sequence from state 0 is SplitMix64(k * golden-gamma).
	const gamma = 0x9E3779B97F4A7C15
	for i, w := range want {
		if got := SplitMix64(uint64(i) * gamma); got != w {
			t.Fatalf("SplitMix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	// Adjacent streams must be decorrelated: estimate correlation of
	// uniform draws across 2 adjacent streams.
	a := Derive(DefaultSeed, 1)
	b := Derive(DefaultSeed, 2)
	n := 100_000
	var sa, sb, sab float64
	for i := 0; i < n; i++ {
		x, y := a.Float64()-0.5, b.Float64()-0.5
		sa += x * x
		sb += y * y
		sab += x * y
	}
	corr := sab / math.Sqrt(sa*sb)
	if math.Abs(corr) > 0.02 {
		t.Fatalf("adjacent streams correlated: %v", corr)
	}
}

// Property: Derive is a pure function of (seed, stream).
func TestQuickDeriveDeterministic(t *testing.T) {
	f := func(seed, stream uint64) bool {
		return Derive(seed, stream).Uint64() == Derive(seed, stream).Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SplitMix64 has no obvious fixed points among random inputs.
func TestQuickSplitMixNotIdentity(t *testing.T) {
	f := func(x uint64) bool { return SplitMix64(x) != x || x == 0x0 && false }
	// A fixed point is astronomically unlikely; any hit is suspicious.
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a generator reseeded in place by DeriveInto — after it has
// already been drawn from, by every method the Monte Carlo rounds use —
// produces exactly the stream of a fresh Derive.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	r := Derive(1, 0)
	f := func(seed, stream uint64) bool {
		_ = r.Float64()
		_ = r.ExpFloat64()
		DeriveInto(r, seed, stream)
		fresh := Derive(seed, stream)
		for i := 0; i < 64; i++ {
			if r.Float64() != fresh.Float64() || r.Intn(1000) != fresh.Intn(1000) ||
				r.NormFloat64() != fresh.NormFloat64() || r.Uint64() != fresh.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
