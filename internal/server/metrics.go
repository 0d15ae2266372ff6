package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/cnfet/yieldlab/internal/buildinfo"
	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/jobstore"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/recfile"
)

// metricsRegistry aggregates per-route request counters, fixed-bucket
// latency histograms and per-stage (sweep/Monte Carlo span) histograms for
// the Prometheus-text /metrics endpoint — the load-tracking surface the
// heavy-traffic north star asks for. It is deliberately dependency-free:
// the exposition format is a few lines of text, not worth a client library.
type metricsRegistry struct {
	mu sync.Mutex
	// requests counts completed requests by route and status code.
	requests map[routeCode]uint64
	// latency holds one request-duration histogram per route.
	latency map[string]*obs.Histogram
	// stages holds one duration histogram per evaluation stage (span name:
	// query.evaluate, sweep.cold, sweep.cache_hit, mc.pilot, mc.run).
	stages map[string]*obs.Histogram
}

type routeCode struct {
	route string
	code  int
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{
		requests: make(map[routeCode]uint64),
		latency:  make(map[string]*obs.Histogram),
		stages:   make(map[string]*obs.Histogram),
	}
}

// histogramLocked returns m[key], creating it on first use. Caller holds
// m.mu (the maps mutate only here; Observe itself is lock-free).
func histogramLocked(m map[string]*obs.Histogram, key string) *obs.Histogram {
	h := m[key]
	if h == nil {
		h = obs.NewHistogram(obs.DefaultLatencyBuckets()...)
		m[key] = h
	}
	return h
}

// observe records one completed request.
func (m *metricsRegistry) observe(route string, code int, seconds float64) {
	m.mu.Lock()
	m.requests[routeCode{route, code}]++
	h := histogramLocked(m.latency, route)
	m.mu.Unlock()
	h.Observe(seconds)
}

// observeStage records one evaluation stage duration.
func (m *metricsRegistry) observeStage(stage string, seconds float64) {
	m.mu.Lock()
	h := histogramLocked(m.stages, stage)
	m.mu.Unlock()
	h.Observe(seconds)
}

// promSnapshot carries the point-in-time gauges sampled at scrape.
type promSnapshot struct {
	uptimeSeconds float64
	cache         SweepCacheStatsJSON
	shed          uint64
	jobs          map[string]int
	build         buildinfo.Info
	// store and journal are nil when the server runs without persistence.
	store       *recfile.Stats
	journal     *jobstore.Stats
	journalErrs uint64
	// faults is nil while the fault registry is disarmed (the normal case).
	faults []fault.SiteStats
}

// formatLE renders a bucket bound the way Prometheus clients do: shortest
// round-trip float, so "0.005" not "5e-03".
func formatLE(bound float64) string {
	return strconv.FormatFloat(bound, 'g', -1, 64)
}

// writeHistogram renders one labeled series of a histogram family:
// cumulative le buckets (an explicit +Inf equal to _count), then _sum and
// _count.
func writeHistogram(b *strings.Builder, name, labelKey, labelVal string, snap obs.HistogramSnapshot) {
	for i, bound := range snap.Bounds {
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", name, labelKey, labelVal, formatLE(bound), snap.Cumulative[i])
	}
	fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, labelKey, labelVal, snap.Cumulative[len(snap.Cumulative)-1])
	fmt.Fprintf(b, "%s_sum{%s=%q} %g\n", name, labelKey, labelVal, snap.Sum)
	fmt.Fprintf(b, "%s_count{%s=%q} %d\n", name, labelKey, labelVal, snap.Count)
}

// sortedKeys returns the map's keys in ascending order, so scrapes are
// deterministic.
func sortedKeys(m map[string]*obs.Histogram) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// write renders the registry in Prometheus text exposition format, with
// keys sorted so scrapes are deterministic.
func (m *metricsRegistry) write(w http.ResponseWriter, snap promSnapshot) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	m.mu.Lock()
	reqs := make([]routeCode, 0, len(m.requests))
	for rc := range m.requests {
		reqs = append(reqs, rc)
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].route != reqs[j].route {
			return reqs[i].route < reqs[j].route
		}
		return reqs[i].code < reqs[j].code
	})
	counts := make(map[routeCode]uint64, len(m.requests))
	for rc, n := range m.requests {
		counts[rc] = n
	}
	routes := sortedKeys(m.latency)
	latency := make(map[string]obs.HistogramSnapshot, len(routes))
	for _, r := range routes {
		latency[r] = m.latency[r].Snapshot()
	}
	stageNames := sortedKeys(m.stages)
	stages := make(map[string]obs.HistogramSnapshot, len(stageNames))
	for _, st := range stageNames {
		stages[st] = m.stages[st].Snapshot()
	}
	m.mu.Unlock()

	var b strings.Builder
	b.WriteString("# HELP yieldserver_http_requests_total Requests served, by route and status code.\n")
	b.WriteString("# TYPE yieldserver_http_requests_total counter\n")
	for _, rc := range reqs {
		fmt.Fprintf(&b, "yieldserver_http_requests_total{route=%q,code=\"%d\"} %d\n",
			rc.route, rc.code, counts[rc])
	}
	b.WriteString("# HELP yieldserver_http_request_duration_seconds Request latency, by route.\n")
	b.WriteString("# TYPE yieldserver_http_request_duration_seconds histogram\n")
	for _, r := range routes {
		writeHistogram(&b, "yieldserver_http_request_duration_seconds", "route", r, latency[r])
	}
	b.WriteString("# HELP yieldserver_stage_duration_seconds Evaluation stage wall time, by span name.\n")
	b.WriteString("# TYPE yieldserver_stage_duration_seconds histogram\n")
	for _, st := range stageNames {
		writeHistogram(&b, "yieldserver_stage_duration_seconds", "stage", st, stages[st])
	}

	b.WriteString("# HELP yieldserver_sweep_cache_hits_total Sweep cache hits.\n")
	b.WriteString("# TYPE yieldserver_sweep_cache_hits_total counter\n")
	fmt.Fprintf(&b, "yieldserver_sweep_cache_hits_total %d\n", snap.cache.Hits)
	b.WriteString("# HELP yieldserver_sweep_cache_misses_total Sweep cache misses.\n")
	b.WriteString("# TYPE yieldserver_sweep_cache_misses_total counter\n")
	fmt.Fprintf(&b, "yieldserver_sweep_cache_misses_total %d\n", snap.cache.Misses)
	b.WriteString("# HELP yieldserver_sweep_cache_evictions_total Models evicted from the sweep cache.\n")
	b.WriteString("# TYPE yieldserver_sweep_cache_evictions_total counter\n")
	fmt.Fprintf(&b, "yieldserver_sweep_cache_evictions_total %d\n", snap.cache.Evictions)
	b.WriteString("# HELP yieldserver_sweep_cache_entries Models currently cached.\n")
	b.WriteString("# TYPE yieldserver_sweep_cache_entries gauge\n")
	fmt.Fprintf(&b, "yieldserver_sweep_cache_entries %d\n", snap.cache.Entries)
	b.WriteString("# HELP yieldserver_sweeps_total Renewal arrival sweeps computed.\n")
	b.WriteString("# TYPE yieldserver_sweeps_total counter\n")
	fmt.Fprintf(&b, "yieldserver_sweeps_total %d\n", snap.cache.Sweeps)
	b.WriteString("# HELP yieldserver_shed_requests_total Synchronous evaluations refused at the in-flight bound with a retryable 503.\n")
	b.WriteString("# TYPE yieldserver_shed_requests_total counter\n")
	fmt.Fprintf(&b, "yieldserver_shed_requests_total %d\n", snap.shed)

	if snap.store != nil {
		b.WriteString("# HELP yieldserver_store_rejects_total Sweep-store files refused for integrity or format reasons.\n")
		b.WriteString("# TYPE yieldserver_store_rejects_total counter\n")
		fmt.Fprintf(&b, "yieldserver_store_rejects_total %d\n", snap.store.Rejects)
		b.WriteString("# HELP yieldserver_store_quarantined_total Corrupt sweep-store files renamed aside to .bad.\n")
		b.WriteString("# TYPE yieldserver_store_quarantined_total counter\n")
		fmt.Fprintf(&b, "yieldserver_store_quarantined_total %d\n", snap.store.Quarantined)
		b.WriteString("# HELP yieldserver_store_retries_total Sweep-store save attempts repeated after transient failures.\n")
		b.WriteString("# TYPE yieldserver_store_retries_total counter\n")
		fmt.Fprintf(&b, "yieldserver_store_retries_total %d\n", snap.store.Retries)
	}
	if snap.journal != nil {
		b.WriteString("# HELP yieldserver_job_journal_puts_total Job records journaled.\n")
		b.WriteString("# TYPE yieldserver_job_journal_puts_total counter\n")
		fmt.Fprintf(&b, "yieldserver_job_journal_puts_total %d\n", snap.journal.Puts)
		b.WriteString("# HELP yieldserver_job_journal_quarantined_total Corrupt job records renamed aside to .bad.\n")
		b.WriteString("# TYPE yieldserver_job_journal_quarantined_total counter\n")
		fmt.Fprintf(&b, "yieldserver_job_journal_quarantined_total %d\n", snap.journal.Quarantined)
		b.WriteString("# HELP yieldserver_job_journal_errors_total Journal failures seen by the job engine (durability degraded, jobs unaffected).\n")
		b.WriteString("# TYPE yieldserver_job_journal_errors_total counter\n")
		fmt.Fprintf(&b, "yieldserver_job_journal_errors_total %d\n", snap.journalErrs)
	}
	if len(snap.faults) > 0 {
		b.WriteString("# HELP yieldserver_fault_injections_total Armed fault-injection sites: calls seen and faults fired.\n")
		b.WriteString("# TYPE yieldserver_fault_injections_total counter\n")
		for _, fs := range snap.faults {
			fmt.Fprintf(&b, "yieldserver_fault_injections_total{site=%q,outcome=\"fired\"} %d\n", fs.Site, fs.Fired)
			fmt.Fprintf(&b, "yieldserver_fault_injections_total{site=%q,outcome=\"passed\"} %d\n", fs.Site, fs.Calls-fs.Fired)
		}
	}

	b.WriteString("# HELP yieldserver_jobs Jobs by state.\n")
	b.WriteString("# TYPE yieldserver_jobs gauge\n")
	states := make([]string, 0, len(snap.jobs))
	for st := range snap.jobs {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(&b, "yieldserver_jobs{state=%q} %d\n", st, snap.jobs[st])
	}

	b.WriteString("# HELP yieldserver_build_info Build metadata; the value is always 1.\n")
	b.WriteString("# TYPE yieldserver_build_info gauge\n")
	fmt.Fprintf(&b, "yieldserver_build_info{version=%q,revision=%q,go_version=%q} 1\n",
		snap.build.Version, snap.build.Revision, snap.build.GoVersion)

	b.WriteString("# HELP yieldserver_uptime_seconds Seconds since the server started.\n")
	b.WriteString("# TYPE yieldserver_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "yieldserver_uptime_seconds %g\n", snap.uptimeSeconds)

	_, _ = io.WriteString(w, b.String()) //yield:allow(errenvelope) /metrics speaks the Prometheus text exposition format, not the JSON envelope
}
