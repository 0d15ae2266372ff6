package query

import (
	"strings"
	"time"

	"github.com/cnfet/yieldlab/internal/obs"
)

// CostBreakdown attributes one evaluation's wall time to its stages. It is
// opt-in: Evaluate attaches it to the Result only when the request context
// carries an obs.Tracer with cost reporting enabled (the server's
// ?debug=cost, the CLI's -spec mode with -trace). Timings never enter the
// default response body, so cacheable payloads and their ETags stay
// byte-identical run to run.
type CostBreakdown struct {
	// TotalMS is the evaluation's wall time; SweepMS and MCMS are the
	// portions spent in renewal sweeps (count-model acquisition plus swept
	// table evaluation) and Monte Carlo stages (pilots plus main runs).
	TotalMS float64 `json:"total_ms"`
	SweepMS float64 `json:"sweep_ms"`
	MCMS    float64 `json:"mc_ms"`
	// SweepCacheHit reports that every sweep stage was answered from the
	// shared cache without computing a single new arrival sweep.
	SweepCacheHit bool `json:"sweep_cache_hit"`
	// Sweeps counts arrival sweeps actually computed (cold evaluations).
	Sweeps uint64 `json:"sweeps,omitempty"`
	// MCRounds, MCBatches and ScratchAllocs echo the Monte Carlo engine
	// counters: simulation rounds, batch claims, and scratch-growth events
	// (a non-zero steady-state value flags a pre-sizing regression).
	MCRounds      uint64 `json:"mc_rounds,omitempty"`
	MCBatches     uint64 `json:"mc_batches,omitempty"`
	ScratchAllocs uint64 `json:"scratch_allocs,omitempty"`
	// Stages is the full span tree flattened depth-first, for consumers
	// that want more than the sweep/MC split.
	Stages []obs.StageDur `json:"stages,omitempty"`
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// attrUint reads a numeric span attribute, tolerating the integer types the
// engine layers use (int for explicit counts, uint64 for folded counters).
func attrUint(sp *obs.Span, key string) uint64 {
	v, ok := sp.AttrValue(key)
	if !ok {
		return 0
	}
	switch n := v.(type) {
	case uint64:
		return n
	case int:
		if n > 0 {
			return uint64(n)
		}
	case int64:
		if n > 0 {
			return uint64(n)
		}
	}
	return 0
}

// costFromSpan folds an ended query.evaluate span into the wire breakdown.
func costFromSpan(sp *obs.Span) *CostBreakdown {
	if sp == nil {
		return nil
	}
	cb := &CostBreakdown{TotalMS: durMS(sp.Duration())}
	sawHit, sawCold := false, false
	for _, c := range sp.Children() {
		name := c.Name()
		switch {
		case strings.HasPrefix(name, "sweep"):
			cb.SweepMS += durMS(c.Duration())
			cb.Sweeps += attrUint(c, "sweeps")
			if name == "sweep.cache_hit" {
				sawHit = true
			} else {
				sawCold = true
			}
		case strings.HasPrefix(name, "mc."):
			cb.MCMS += durMS(c.Duration())
			cb.MCRounds += attrUint(c, "rounds")
			cb.MCBatches += attrUint(c, "mc_batches")
			cb.ScratchAllocs += attrUint(c, "scratch_allocs")
		}
	}
	cb.SweepCacheHit = sawHit && !sawCold
	cb.Stages = obs.Stages(sp)
	return cb
}

// finishSweepSpan classifies and ends a sweep span: cache_hit when the count
// model came from the shared cache and the evaluation computed no new
// arrival sweeps, cold otherwise (fresh model, or a cached model asked for a
// width its table had not swept yet).
func finishSweepSpan(sp *obs.Span, hit bool, sweeps uint64) {
	if sp == nil {
		return
	}
	if hit && sweeps == 0 {
		sp.SetName("sweep.cache_hit")
	} else {
		sp.SetName("sweep.cold")
	}
	sp.SetBool("model_cached", hit)
	if sweeps > 0 {
		sp.SetUint("sweeps", sweeps)
	}
	sp.End()
}
