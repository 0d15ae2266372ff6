package renewal

import (
	"math"
	"sync"
	"testing"

	"github.com/cnfet/yieldlab/internal/dist"
)

// pgfTestModel builds a small shared model over the calibrated pitch law.
func pgfTestModel(t *testing.T) *Model {
	t.Helper()
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tn, WithStep(0.1), WithMaxWidth(120))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// directPGF evaluates CountPMF(w).PGF(z) without the memo.
func directPGF(t *testing.T, m *Model, w, z float64) float64 {
	t.Helper()
	pmf, err := m.CountPMF(w)
	if err != nil {
		t.Fatal(err)
	}
	return pmf.PGF(z)
}

// TestPGFMemoConcurrent hammers one shared model from many goroutines with
// the three paper corners' evaluation points and more distinct points than
// the memo holds columns for (run under -race). Every answer must carry the
// bits of a direct evaluation, memoized or not.
func TestPGFMemoConcurrent(t *testing.T) {
	m := pgfTestModel(t)
	zs := []float64{0.33 + 0.67*0.3, 0.33, 0}
	for i := 0; len(zs) < 2*pgfColumns; i++ {
		zs = append(zs, 0.05+0.07*float64(i))
	}
	const goroutines = 16
	var wg sync.WaitGroup
	type answer struct{ w, z, v float64 }
	answers := make([][]answer, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				w := 1 + float64((g*37+i*53)%1190)/10
				z := zs[(g+i)%len(zs)]
				var v float64
				if i%5 == 0 {
					var vs [2]float64
					if err := m.PGFsInto(vs[:], []float64{w, w / 2}, z); err != nil {
						errs[g] = err
						return
					}
					v = vs[0]
				} else {
					var err error
					if v, err = m.PGF(w, z); err != nil {
						errs[g] = err
						return
					}
				}
				answers[g] = append(answers[g], answer{w, z, v})
			}
		}(g)
	}
	wg.Wait()
	for g := range answers {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for _, a := range answers[g] {
			if want := directPGF(t, m, a.w, a.z); math.Float64bits(a.v) != math.Float64bits(want) {
				t.Fatalf("PGF(%g, %g) = %v, direct %v", a.w, a.z, a.v, want)
			}
		}
	}
	if n := len(m.pgf); n != pgfColumns {
		t.Fatalf("memo holds %d columns, want the cap %d", n, pgfColumns)
	}
}

// TestPGFMemoBound fills the memo to its cap and checks that further
// evaluation points are answered correctly without allocating a column.
func TestPGFMemoBound(t *testing.T) {
	m := pgfTestModel(t)
	for i := 0; i < pgfColumns; i++ {
		if _, err := m.PGF(50, float64(i)/pgfColumns); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(m.pgf); n != pgfColumns {
		t.Fatalf("memo holds %d columns after %d points, want %d", n, pgfColumns, pgfColumns)
	}
	cells := m.fullHorizon() + 1
	for _, c := range m.pgf {
		if len(c.vals) != cells {
			t.Fatalf("column holds %d cells, want %d", len(c.vals), cells)
		}
	}
	z := 0.999
	for _, w := range []float64{20, 50, 119.9} {
		got, err := m.PGF(w, z)
		if err != nil {
			t.Fatal(err)
		}
		if want := directPGF(t, m, w, z); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("uncached PGF(%g, %g) = %v, direct %v", w, z, got, want)
		}
		var vs [1]float64
		if err := m.PGFsInto(vs[:], []float64{w}, z); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(vs[0]) != math.Float64bits(got) {
			t.Fatalf("uncached PGFsInto(%g, %g) = %v, PGF %v", w, z, vs[0], got)
		}
	}
	if n := len(m.pgf); n != pgfColumns {
		t.Fatalf("point past the cap allocated a column: %d columns", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = m.PGF(50, z) }); allocs != 0 {
		t.Fatalf("uncached PGF allocates %v per call", allocs)
	}
}
