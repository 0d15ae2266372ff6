package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/server"
)

// sample is the outcome of one measured request (or job).
type sample struct {
	ok  bool
	err error // why a failed sample failed, when known
	// wall is the latency the client saw: one handler call for sync
	// requests, submission to the poll that saw the job finish for jobs.
	wall time.Duration
	// The fields below are filled in trace mode only.
	costs   []*query.CostBreakdown
	job     bool // queueMS and runMS hold a finished job's timestamps
	queueMS float64
	runMS   float64
	polls   int
}

// serve sends one request straight into the server's handler and returns
// the status, a copy of the body and the handler's wall time.
func (b *bench) serve(method, target string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	b.handler.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	return rec.Code, bytes.Clone(rec.Body.Bytes()), elapsed
}

// queryPath is the sync query route, asking for the stage breakdown in
// trace mode.
func (b *bench) queryPath() string {
	if b.opts.trace {
		return "/v2/query?debug=cost"
	}
	return "/v2/query"
}

// resultsKey renders results without their cost breakdowns: the byte form
// two evaluations of one spec must agree on.
func resultsKey(rs []query.Result) (string, []*query.CostBreakdown, error) {
	stripped := make([]query.Result, len(rs))
	var costs []*query.CostBreakdown
	for i, r := range rs {
		if r.Cost != nil {
			costs = append(costs, r.Cost)
		}
		r.Cost = nil
		stripped[i] = r
	}
	key, err := json.Marshal(stripped)
	return string(key), costs, err
}

// decodeQuery parses a sync /v2/query response and checks its framing.
func decodeQuery(code int, body []byte) (server.QueryResponseJSON, error) {
	var out server.QueryResponseJSON
	if code != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, err
	}
	if out.Count != len(out.Results) || out.Count == 0 {
		return out, fmt.Errorf("count %d with %d results", out.Count, len(out.Results))
	}
	return out, nil
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func wallsMS(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		out = append(out, float64(s.wall)/float64(time.Millisecond))
	}
	return out
}

// endToEndMetrics are what a client of the server sees, every time scaled
// by scale to the nominal host speed (see calibrate.go). Failed requests
// stay in the latency sample: the loop gives them no special treatment.
func endToEndMetrics(samples []sample, busy time.Duration, st setupTimes, scale float64) map[string]Metric {
	lat := wallsMS(samples)
	return map[string]Metric{
		"latency_p50_ms": {quantile(lat, 0.5) * scale, "ms"},
		"throughput_rps": {float64(len(samples)) / (busy.Seconds() * scale), "1/s"},
		"setup_s":        {quantile(st.server, 0.5) * scale, "s"},
	}
}

// layerMetrics attribute the run to the server's layers: the query
// evaluation and sweep stages of the ?debug=cost breakdowns, the handler
// time no evaluation covers (routing, decoding, canonicalization,
// encoding, middleware), the sweep cache's hits and the sweeps computed
// (from the breakdowns too, since the cold workload changes servers between
// requests, so /v1/stats deltas would not cover its loop), the job engine's
// queue and run times and journal writes, and set-up's store load. Metrics
// a workload does not exercise read 0; async jobs run untraced, so their
// stage metrics read 0 too.
func layerMetrics(samples []sample, st setupTimes, before, after server.StatsJSON) map[string]Metric {
	n := float64(len(samples))
	if n == 0 {
		n = 1
	}
	var evalMS, sweepMS, unattributedMS, wallMS float64
	var evals, hits, sweeps uint64
	var polls int
	var queue, runs []float64
	for _, s := range samples {
		w := float64(s.wall) / float64(time.Millisecond)
		wallMS += w
		var e float64
		for _, c := range s.costs {
			e += c.TotalMS
			sweepMS += c.SweepMS
			evals++
			sweeps += c.Sweeps
			if c.SweepCacheHit {
				hits++
			}
		}
		evalMS += e
		if len(s.costs) > 0 {
			unattributedMS += math.Max(0, w-e)
		}
		polls += s.polls
		if s.job {
			queue = append(queue, s.queueMS)
			runs = append(runs, s.runMS)
		}
	}
	share := 0.0
	if wallMS > 0 {
		share = unattributedMS / wallMS
	}
	hitRatio := 0.0
	if evals > 0 {
		hitRatio = float64(hits) / float64(evals)
	}
	var puts uint64
	if after.Journal != nil && before.Journal != nil {
		puts = after.Journal.Puts - before.Journal.Puts
	}
	lat := wallsMS(samples)
	return map[string]Metric{
		"traced_latency_p50_ms": {quantile(lat, 0.5), "ms"},
		"traced_latency_p90_ms": {quantile(lat, 0.9), "ms"},
		"evaluate_ms_per_req":   {evalMS / n, "ms"},
		"sweep_ms_per_req":      {sweepMS / n, "ms"},
		"unattributed_share":    {share, "ratio"},
		"sweep_cache_hit_ratio": {hitRatio, "ratio"},
		"sweeps_per_req":        {float64(sweeps) / n, "count"},
		"job_queue_p50_ms":      {quantile(queue, 0.5), "ms"},
		"job_run_p50_ms":        {quantile(runs, 0.5), "ms"},
		"journal_puts_per_job":  {float64(puts) / n, "count"},
		"polls_per_job":         {float64(polls) / n, "count"},
		"setup_store_warm_ms":   {quantile(st.warm, 0.5) * 1e3, "ms"},
		"setup_server_start_ms": {quantile(st.server, 0.5) * 1e3, "ms"},
	}
}
