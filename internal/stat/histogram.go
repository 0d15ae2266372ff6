package stat

import (
	"errors"
	"fmt"

	"github.com/cnfet/yieldlab/internal/numeric"
)

// Histogram is a weighted histogram over contiguous bins defined by strictly
// increasing edges. Bin i covers [Edges[i], Edges[i+1]); the last bin is
// closed on the right. Values outside the range are counted in Under/Over.
type Histogram struct {
	Edges  []float64
	Counts []float64
	Under  float64
	Over   float64
}

// NewHistogram builds an empty histogram with the given edges (≥ 2, strictly
// increasing).
func NewHistogram(edges []float64) (*Histogram, error) {
	if len(edges) < 2 {
		return nil, errors.New("stat: histogram needs at least 2 edges")
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return nil, fmt.Errorf("stat: histogram edges not increasing at %d", i)
		}
	}
	e := make([]float64, len(edges))
	copy(e, edges)
	return &Histogram{Edges: e, Counts: make([]float64, len(edges)-1)}, nil
}

// AddWeighted records value x with weight w.
func (h *Histogram) AddWeighted(x, w float64) {
	n := len(h.Counts)
	if x < h.Edges[0] {
		h.Under += w
		return
	}
	if x > h.Edges[n] {
		h.Over += w
		return
	}
	if x == h.Edges[n] {
		h.Counts[n-1] += w
		return
	}
	lo, hi := 0, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if h.Edges[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	h.Counts[lo] += w
}

// Total returns the in-range weight.
func (h *Histogram) Total() float64 { return numeric.SumSlice(h.Counts) }

// Shares returns per-bin fractions of the in-range weight; all zeros when
// the histogram is empty.
func (h *Histogram) Shares() []float64 {
	out := make([]float64, len(h.Counts))
	tot := h.Total()
	if tot == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = c / tot
	}
	return out
}

// BinCenters returns the midpoints of all bins.
func (h *Histogram) BinCenters() []float64 {
	out := make([]float64, len(h.Counts))
	for i := range out {
		out[i] = 0.5 * (h.Edges[i] + h.Edges[i+1])
	}
	return out
}
