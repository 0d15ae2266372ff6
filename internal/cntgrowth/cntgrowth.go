// Package cntgrowth simulates carbon-nanotube growth on a substrate — the
// physical substrate under the paper's statistical models, and the engine
// behind the Fig. 3.1 reproduction.
//
// Two growth processes are provided:
//
//   - Directional: quartz-substrate directional CVD growth ([Kang 07,
//     Patil 09b]): CNTs run along the x (growth) direction in parallel
//     tracks. Track lateral positions follow the renewal pitch process
//     (package renewal uses the same law analytically); along each track
//     the tube breaks into segments of length ≈ LCNT with independent
//     metallic/semiconducting type per segment — the paper's "perfect
//     correlation within the CNT length, complete uncorrelation beyond".
//   - Uncorrelated: dispersed/solution growth: straight sticks with random
//     position, orientation spread and length; nearby devices share no
//     statistics.
//
// Geometry convention: everything is in nm; a CNFET channel is an axis-
// aligned rectangle whose current flows along x, so a CNT is part of the
// channel iff it crosses both vertical edges of the rectangle.
//
//yield:compute
package cntgrowth

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/cnfet/yieldlab/internal/dist"
)

// CNTType distinguishes metallic from semiconducting nanotubes.
type CNTType uint8

// CNT types. Roughly one third of grown CNTs are metallic (pm ≈ 33%), the
// paper's worst processing corner.
const (
	Semiconducting CNTType = iota
	Metallic
)

// String implements fmt.Stringer.
func (t CNTType) String() string {
	switch t {
	case Semiconducting:
		return "semiconducting"
	case Metallic:
		return "metallic"
	default:
		return fmt.Sprintf("CNTType(%d)", uint8(t))
	}
}

// Rect is an axis-aligned rectangle in substrate coordinates (nm).
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Validate checks the rectangle is non-degenerate.
func (r Rect) Validate() error {
	if !(r.X1 > r.X0) || !(r.Y1 > r.Y0) {
		return fmt.Errorf("cntgrowth: degenerate rect [%g,%g]x[%g,%g]", r.X0, r.X1, r.Y0, r.Y1)
	}
	return nil
}

// Width returns the y-extent (the CNFET width direction).
func (r Rect) Width() float64 { return r.Y1 - r.Y0 }

// Length returns the x-extent (the channel/current direction).
func (r Rect) Length() float64 { return r.X1 - r.X0 }

// CNT is one grown nanotube, represented as a straight segment.
type CNT struct {
	// X0,Y0 – X1,Y1 are the endpoints; directional CNTs have Y0 == Y1.
	X0, Y0, X1, Y1 float64
	// Type is the electronic type.
	Type CNTType
	// Diameter in nm.
	Diameter float64
	// Track and Segment identify the growth track and LCNT segment for
	// directional growth (-1 for uncorrelated sticks).
	Track, Segment int
	// Removed marks tubes etched by the removal step.
	Removed bool
}

// crossesBothEdges reports whether the tube spans the full channel: it must
// intersect both vertical edges of rect inside the rect's y-range.
func (c CNT) crossesBothEdges(rect Rect) bool {
	x0, x1 := c.X0, c.X1
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if x0 > rect.X0 || x1 < rect.X1 {
		return false
	}
	yAt := func(x float64) float64 {
		if c.X1 == c.X0 {
			return c.Y0
		}
		t := (x - c.X0) / (c.X1 - c.X0)
		return c.Y0 + t*(c.Y1-c.Y0)
	}
	yl, yr := yAt(rect.X0), yAt(rect.X1)
	return yl >= rect.Y0 && yl <= rect.Y1 && yr >= rect.Y0 && yr <= rect.Y1
}

// Array is the result of growing CNTs over a region.
type Array struct {
	// Region is the grown area.
	Region Rect
	// CNTs holds every tube touching the region.
	CNTs []CNT
	// TrackYs holds the lateral track positions for directional growth
	// (nil for uncorrelated growth).
	TrackYs []float64
}

// Crossing returns the indices of all tubes (removed or not) forming a
// channel across rect.
func (a *Array) Crossing(rect Rect) []int {
	var out []int
	for i := range a.CNTs {
		if a.CNTs[i].crossesBothEdges(rect) {
			out = append(out, i)
		}
	}
	return out
}

// CountUsable returns the number of surviving semiconducting tubes crossing
// rect — the conducting channels of a CNFET placed there.
func (a *Array) CountUsable(rect Rect) int {
	n := 0
	for _, i := range a.Crossing(rect) {
		c := &a.CNTs[i]
		if c.Type == Semiconducting && !c.Removed {
			n++
		}
	}
	return n
}

// DensityPerUM returns the average track density (tracks per µm of lateral
// extent) of a directional array.
func (a *Array) DensityPerUM() float64 {
	if len(a.TrackYs) == 0 {
		return 0
	}
	return float64(len(a.TrackYs)) / a.Region.Width() * 1000
}

// Directional grows aligned CNTs in parallel tracks.
type Directional struct {
	// Pitch is the inter-track spacing law in nm (e.g. the calibrated
	// truncated normal with mean 4 nm).
	Pitch dist.Continuous
	// PMetallic is the per-segment probability of a metallic tube.
	PMetallic float64
	// LengthNM is LCNT, the (mean) tube length; the paper uses 200 µm
	// [Kang 07, Patil 09b].
	LengthNM float64
	// LengthJitterFrac is an extension knob (the paper defers CNT length
	// variation to future work): segment lengths vary uniformly by
	// ±jitter·LengthNM. Zero reproduces the paper's fixed-length model.
	LengthJitterFrac float64
	// Diameter is the tube diameter law in nm; nil uses a fixed 1.5 nm.
	Diameter dist.Continuous
}

// Validate checks growth parameters.
func (g Directional) Validate() error {
	if g.Pitch == nil {
		return errors.New("cntgrowth: nil pitch distribution")
	}
	if g.PMetallic < 0 || g.PMetallic > 1 || math.IsNaN(g.PMetallic) {
		return fmt.Errorf("cntgrowth: PMetallic %g out of [0,1]", g.PMetallic)
	}
	if !(g.LengthNM > 0) {
		return fmt.Errorf("cntgrowth: LengthNM %g must be positive", g.LengthNM)
	}
	if g.LengthJitterFrac < 0 || g.LengthJitterFrac >= 1 {
		return fmt.Errorf("cntgrowth: LengthJitterFrac %g out of [0,1)", g.LengthJitterFrac)
	}
	return nil
}

// Grow implements the directional growth process over region.
func (g Directional) Grow(r *rand.Rand, region Rect) (*Array, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := region.Validate(); err != nil {
		return nil, err
	}
	a := &Array{Region: region}
	// Lateral track positions: equilibrium renewal via burn-in from well
	// below the region.
	mean := g.Pitch.Mean()
	y := region.Y0 - 50*mean
	for y < region.Y0 {
		y += g.Pitch.Sample(r)
	}
	track := 0
	for ; y <= region.Y1; track++ {
		a.TrackYs = append(a.TrackYs, y)
		g.growTrack(r, a, track, y, region)
		y += g.Pitch.Sample(r)
	}
	return a, nil
}

// growTrack lays LCNT segments along one track, with a random phase so
// segment boundaries are not aligned across tracks.
func (g Directional) growTrack(r *rand.Rand, a *Array, track int, y float64, region Rect) {
	segLen := func() float64 {
		if g.LengthJitterFrac == 0 {
			return g.LengthNM
		}
		return g.LengthNM * (1 + g.LengthJitterFrac*(2*r.Float64()-1))
	}
	// Random phase: the first boundary left of the region.
	x := region.X0 - r.Float64()*g.LengthNM
	for seg := 0; x < region.X1; seg++ {
		l := segLen()
		x1 := x + l
		typ := Semiconducting
		if r.Float64() < g.PMetallic {
			typ = Metallic
		}
		dia := 1.5
		if g.Diameter != nil {
			dia = g.Diameter.Sample(r)
		}
		a.CNTs = append(a.CNTs, CNT{
			X0: x, Y0: y, X1: x1, Y1: y,
			Type: typ, Diameter: dia,
			Track: track, Segment: seg,
		})
		x = x1
	}
}

// Uncorrelated grows randomly dispersed sticks (e.g. solution deposition):
// no spatial correlation between nearby devices.
type Uncorrelated struct {
	// DensityPerUM2 is the stick density in tubes per µm².
	DensityPerUM2 float64
	// PMetallic as for Directional.
	PMetallic float64
	// LengthNM is the mean stick length; sticks are much shorter than
	// directional tubes (≈ 1–5 µm).
	LengthNM float64
	// LengthSpreadFrac varies stick length uniformly by ±spread·LengthNM.
	LengthSpreadFrac float64
	// AngleSpreadRad is the maximum deviation from the x axis; π/2 makes
	// the orientation isotropic.
	AngleSpreadRad float64
	// Diameter as for Directional; nil uses 1.5 nm.
	Diameter dist.Continuous
}

// Validate checks growth parameters.
func (g Uncorrelated) Validate() error {
	if !(g.DensityPerUM2 > 0) {
		return fmt.Errorf("cntgrowth: density %g must be positive", g.DensityPerUM2)
	}
	if g.PMetallic < 0 || g.PMetallic > 1 || math.IsNaN(g.PMetallic) {
		return fmt.Errorf("cntgrowth: PMetallic %g out of [0,1]", g.PMetallic)
	}
	if !(g.LengthNM > 0) {
		return fmt.Errorf("cntgrowth: LengthNM %g must be positive", g.LengthNM)
	}
	if g.LengthSpreadFrac < 0 || g.LengthSpreadFrac >= 1 {
		return fmt.Errorf("cntgrowth: LengthSpreadFrac %g out of [0,1)", g.LengthSpreadFrac)
	}
	if g.AngleSpreadRad < 0 || g.AngleSpreadRad > math.Pi/2 {
		return fmt.Errorf("cntgrowth: AngleSpreadRad %g out of [0,π/2]", g.AngleSpreadRad)
	}
	return nil
}

// Grow implements the uncorrelated stick process: a Poisson number of stick
// centers lands in an inflated region (so edge effects do not bias density),
// each with random orientation and length.
func (g Uncorrelated) Grow(r *rand.Rand, region Rect) (*Array, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := region.Validate(); err != nil {
		return nil, err
	}
	a := &Array{Region: region}
	// Inflate by the maximum stick half-length so sticks centered outside
	// but reaching in are represented.
	maxHalf := g.LengthNM * (1 + g.LengthSpreadFrac) / 2
	inflated := Rect{
		X0: region.X0 - maxHalf, Y0: region.Y0 - maxHalf,
		X1: region.X1 + maxHalf, Y1: region.Y1 + maxHalf,
	}
	areaUM2 := inflated.Width() * inflated.Length() / 1e6
	lambda := g.DensityPerUM2 * areaUM2
	n := samplePoisson(r, lambda)
	for i := 0; i < n; i++ {
		cx := inflated.X0 + r.Float64()*inflated.Length()
		cy := inflated.Y0 + r.Float64()*inflated.Width()
		angle := (2*r.Float64() - 1) * g.AngleSpreadRad
		l := g.LengthNM
		if g.LengthSpreadFrac > 0 {
			l *= 1 + g.LengthSpreadFrac*(2*r.Float64()-1)
		}
		dx := math.Cos(angle) * l / 2
		dy := math.Sin(angle) * l / 2
		typ := Semiconducting
		if r.Float64() < g.PMetallic {
			typ = Metallic
		}
		dia := 1.5
		if g.Diameter != nil {
			dia = g.Diameter.Sample(r)
		}
		a.CNTs = append(a.CNTs, CNT{
			X0: cx - dx, Y0: cy - dy, X1: cx + dx, Y1: cy + dy,
			Type: typ, Diameter: dia,
			Track: -1, Segment: -1,
		})
	}
	return a, nil
}

// samplePoisson draws a Poisson variate; Knuth's product method for small
// means, normal approximation above 500 where the product underflows.
func samplePoisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Removal models the VMR-style m-CNT removal step [Patil 09c]: metallic
// tubes are removed with probability PRemoveMetallic; semiconducting tubes
// are lost collaterally with probability PRemoveSemi.
type Removal struct {
	PRemoveMetallic float64
	PRemoveSemi     float64
}

// Validate checks the removal probabilities.
func (rm Removal) Validate() error {
	if rm.PRemoveMetallic < 0 || rm.PRemoveMetallic > 1 || math.IsNaN(rm.PRemoveMetallic) {
		return fmt.Errorf("cntgrowth: PRemoveMetallic %g out of [0,1]", rm.PRemoveMetallic)
	}
	if rm.PRemoveSemi < 0 || rm.PRemoveSemi > 1 || math.IsNaN(rm.PRemoveSemi) {
		return fmt.Errorf("cntgrowth: PRemoveSemi %g out of [0,1]", rm.PRemoveSemi)
	}
	return nil
}

// Apply flips Removed flags in place. A tube already removed stays removed.
func (rm Removal) Apply(r *rand.Rand, a *Array) error {
	if err := rm.Validate(); err != nil {
		return err
	}
	if a == nil {
		return errors.New("cntgrowth: nil array")
	}
	for i := range a.CNTs {
		c := &a.CNTs[i]
		switch c.Type {
		case Metallic:
			if r.Float64() < rm.PRemoveMetallic {
				c.Removed = true
			}
		case Semiconducting:
			if r.Float64() < rm.PRemoveSemi {
				c.Removed = true
			}
		}
	}
	return nil
}
