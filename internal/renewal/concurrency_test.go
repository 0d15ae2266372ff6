package renewal

import (
	"sync"
	"testing"

	"github.com/cnfet/yieldlab/internal/dist"
)

// The model promises concurrent safety: hammer CountPMF from many
// goroutines with overlapping widths (run under -race in CI).
func TestConcurrentCountPMF(t *testing.T) {
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tn, WithStep(0.1), WithMaxWidth(150))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				w := 10 + float64((g*13+i*29)%130)
				pmf, err := m.CountPMF(w)
				if err != nil {
					errs <- err
					return
				}
				if pmfMass(pmf) < 0.999 {
					errs <- errTest{"mass lost"}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All goroutines agree with a fresh serial model.
	serial, err := New(tn, WithStep(0.1), WithMaxWidth(150))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{23, 87, 139} {
		a, err := m.CountPMF(w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := serial.CountPMF(w)
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("W=%v: support %d vs %d", w, a.Len(), b.Len())
		}
		for k := 0; k < a.Len(); k++ {
			if d := a.Prob(k) - b.Prob(k); d > 1e-12 || d < -1e-12 {
				t.Fatalf("W=%v: P(N=%d) differs", w, k)
			}
		}
	}
}

type errTest struct{ msg string }

func (e errTest) Error() string { return e.msg }
