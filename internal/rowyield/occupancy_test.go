package rowyield

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/cnfet/yieldlab/internal/rng"
)

// walkDraw is occupancy.draw with no tables, the oracle they are held to,
// stream use included: the zero term inline, the Bernoulli fallback below
// zeroTermFloor, else one uniform and the walk.
func walkDraw(o *occupancy, r *rand.Rand, n int) int {
	if o.all {
		return n
	}
	p := o.p
	if p <= 0 || n <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	pmf := math.Exp(float64(n) * math.Log1p(-p))
	if pmf < zeroTermFloor {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	return o.walk(pmf, n, r.Float64())
}

// checkOccupancyTables holds every drawing step of m's prepared plan to the
// walk, for every n ≤ nFETs. Where a table exists (n ≤ occupancyTableMax
// and a zero term of at least zeroTermFloor) its search must answer the walk's k
// at 0, at the largest uniform below 1, at every entry and one ulp either
// side of it, at every guide slot's edge and the uniform below it, and at
// random uniforms. For every n, draw on the model's
// published tables must answer walkDraw's k from the same stream and leave
// the stream where walkDraw does. It returns the number of (step, n)
// tables checked.
func checkOccupancyTables(m *RowModel) (int, error) {
	gen := rng.New(99)
	tables := 0
	for s := range m.plan {
		o := &m.plan[s]
		if o.all {
			continue
		}
		for n := 0; n <= m.nFETs; n++ {
			if n < len(o.pmf0) {
				if t := o.tabulateCDF(n); t != nil {
					tables++
					us := []float64{0, math.Nextafter(1, 0)}
					for j := 1; j < occupancyGuide; j++ {
						c := float64(j) / occupancyGuide
						us = append(us, c, math.Nextafter(c, 0))
					}
					for _, c := range t.cdf {
						us = append(us, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
					}
					for i := 0; i < 16; i++ {
						us = append(us, gen.Float64())
					}
					for _, u := range us {
						if u >= 1 {
							continue // a sum rounded past 1: draws never see u ≥ 1
						}
						if got, want := t.search(u, n), o.walk(o.pmf0[n], n, u); got != want {
							return tables, fmt.Errorf("step %d (p %g), n %d, u %v: table answers %d, walk %d", s, o.p, n, u, got, want)
						}
					}
				} else if !(o.pmf0[n] < zeroTermFloor) {
					return tables, fmt.Errorf("step %d, n %d: no table for zero term %g", s, n, o.pmf0[n])
				}
			}
			seed := gen.Uint64()
			r1, r2 := rng.New(seed), rng.New(seed)
			if got, want := o.draw(r1, n), walkDraw(o, r2, n); got != want {
				return tables, fmt.Errorf("step %d (p %g), n %d, seed %d: draw %d, walk %d", s, o.p, n, seed, got, want)
			}
			if r1.Uint64() != r2.Uint64() {
				return tables, fmt.Errorf("step %d (p %g), n %d, seed %d: draw and walk consumed different streams", s, o.p, n, seed)
			}
		}
	}
	return tables, nil
}

// literalModel prepares a row model on a literal offset distribution with
// CNT length lcnt (nm; the paper's 200 µm rows hold 360 FETs).
func literalModel(t *testing.T, offsets, probs []float64, lcnt float64) *RowModel {
	t.Helper()
	m := testRowModel(t, 30, OffsetDist{Offsets: offsets, Probs: probs})
	m.LCNTNM = lcnt
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	return &m
}

// The tables must answer the walk's k on plans built to reach every edge
// of the inversion: conditional probabilities near 0 and near 1, zero terms
// under zeroTermFloor (the Bernoulli fallback), counts above occupancyTableMax
// (no table at all), and literal offsets given out of order or repeated.
func TestOccupancyTablesMatchWalk(t *testing.T) {
	for _, tc := range []struct {
		name    string
		offsets []float64
		probs   []float64
		lcnt    float64
	}{
		{"p-near-0", []float64{0, 50, 100}, []float64{1e-12, 1e-9, 1}, 200_000},
		{"p-near-1", []float64{0, 50, 100}, []float64{1 - 1e-9, 0.5e-9, 0.5e-9}, 200_000},
		{"p-one-ulp-off", []float64{0, 50}, []float64{math.Nextafter(1, 0), 1 - math.Nextafter(1, 0)}, 200_000},
		{"zero-term-underflow", []float64{0, 50, 100}, []float64{0.9, 0.05, 0.05}, 200_000},
		{"above-table-max", []float64{0, 50, 100}, []float64{1e-3, 2e-3, 1}, 2_400_000},
		{"unsorted", []float64{190, 0, 380, 95}, []float64{0.25, 0.4, 0.2, 0.15}, 200_000},
		{"repeated", []float64{60, 0, 60, 30}, []float64{0.3, 0.3, 0.2, 0.2}, 200_000},
		{"zero-mass-offsets", []float64{0, 20, 40, 60}, []float64{0.5, 0, 0.5, 0}, 200_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := literalModel(t, tc.offsets, tc.probs, tc.lcnt)
			tables, err := checkOccupancyTables(m)
			if err != nil {
				t.Fatal(err)
			}
			if tables == 0 {
				t.Fatal("no table was checked")
			}
		})
	}
}

// The adversarial plans above must actually reach the edges they name.
func TestOccupancyEdgesReached(t *testing.T) {
	under := literalModel(t, []float64{0, 50, 100}, []float64{0.9, 0.05, 0.05}, 200_000)
	if o := &under.plan[0]; !(o.pmf0[len(o.pmf0)-1] < zeroTermFloor) || o.tabulateCDF(len(o.pmf0)-1) != nil {
		t.Error("zero-term-underflow: the largest n should take the Bernoulli fallback")
	}
	above := literalModel(t, []float64{0, 50, 100}, []float64{1e-3, 2e-3, 1}, 2_400_000)
	if above.nFETs <= occupancyTableMax || len(above.plan[0].cdfs) != occupancyTableMax+1 {
		t.Errorf("above-table-max: %d FETs, %d table slots", above.nFETs, len(above.plan[0].cdfs))
	}
	// A truncated table must end before n: the case where a uniform past
	// its end answers n without a stored entry.
	if o := &above.plan[0]; len(o.tabulateCDF(occupancyTableMax).cdf) >= occupancyTableMax {
		t.Error("above-table-max: the n = occupancyTableMax table was not truncated")
	}
}

// Several workers first-touching a fresh model's tables must give the bits
// one worker gives on a model that only walks (run under -race in CI):
// which goroutine builds or publishes a table cannot change a draw.
func TestOccupancyTablesFirstTouchRace(t *testing.T) {
	offsets := []float64{190, 0, 380, 95, 20, 60}
	probs := []float64{0.25, 0.3, 0.2, 0.15, 0.05, 0.05}
	walk := literalModel(t, offsets, probs, 200_000)
	walk.plan[0].budget.Store(0) // the steps share it: every draw walks
	fresh := literalModel(t, offsets, probs, 200_000)
	const goroutines, rounds = 4, 300
	want := make([]uint64, goroutines)
	for g := range want {
		est, err := estimate(context.Background(), walk, uint64(g+1), DirectionalUnaligned, rounds, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = math.Float64bits(est.Mean)
	}
	got := make([]uint64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			est, err := estimate(context.Background(), fresh, uint64(g+1), DirectionalUnaligned, rounds, 3)
			got[g], errs[g] = math.Float64bits(est.Mean), err
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if got[g] != want[g] {
			t.Errorf("seed %d: %d-worker pRF bits %x on first-touched tables, %x walking with one worker", g+1, 3, got[g], want[g])
		}
	}
	if walk.plan[0].cdfs[walk.nFETs].Load() != walkOnly {
		t.Error("the walk-only model published a table")
	}
}

// The published tables of one model never hold more bytes than
// occupancyTableBudget, whatever the order and concurrency of first
// touches, and the budget's remainder accounts for every published byte.
func TestOccupancyTableBudgetHolds(t *testing.T) {
	// Two 4096-slot steps at p = 0.3: eagerly tabulated they hold far more
	// than the budget.
	m := literalModel(t, []float64{0, 50, 100}, []float64{0.3, 0.35, 0.35}, 2_400_000)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := range m.plan {
				o := &m.plan[s]
				if o.all {
					continue
				}
				for i := range o.cdfs {
					n := i
					if g%2 == 1 {
						n = len(o.cdfs) - 1 - i
					}
					if o.cdfs[n].Load() == nil {
						o.publishCDF(n)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var used int64
	walked := 0
	for s := range m.plan {
		o := &m.plan[s]
		if o.all {
			continue
		}
		for n := range o.cdfs {
			switch tab := o.cdfs[n].Load(); {
			case tab == nil:
				t.Fatalf("step %d, n %d: table slot never published", s, n)
			case tab == walkOnly:
				if !(o.pmf0[n] < zeroTermFloor) {
					walked++
				}
			default:
				used += tab.bytes()
			}
		}
	}
	if used > occupancyTableBudget {
		t.Fatalf("published %d table bytes, budget %d", used, occupancyTableBudget)
	}
	if walked == 0 {
		t.Fatal("the budget was never spent: the test plan is too small")
	}
	if left := m.plan[0].budget.Load(); left != occupancyTableBudget-used {
		t.Fatalf("budget remainder %d, want %d - %d published", left, occupancyTableBudget, used)
	}
}
