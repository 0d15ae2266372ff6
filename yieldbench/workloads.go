package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"github.com/cnfet/yieldlab/internal/analysis/apilock"
	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/rng"
	"github.com/cnfet/yieldlab/internal/server"
)

// draw is a deterministic uniform [0, 1) variate for (seed, stream, i).
func draw(seed uint64, stream, i int) float64 {
	x := rng.SplitMix64(seed*0x9e3779b97f4a7c15 ^ uint64(stream)<<40 ^ uint64(i))
	return float64(x>>11) / (1 << 53)
}

// pick is a deterministic index in [0, n) for (seed, stream, i).
func pick(seed uint64, stream, i, n int) int {
	return int(draw(seed, stream, i) * float64(n))
}

// evaluator answers a spec on a session independent of the server under
// test, returning its results key.
type evaluator func(query.Spec) (string, error)

// answers holds the results keys of a workload's first measured requests,
// the ones verify recomputes after the loop has ended.
type answers [4]string

func (a *answers) record(i int, key string) {
	if i >= 0 && i < len(a) {
		a[i] = key
	}
}

// verify recomputes request i's spec(i) with eval for every recorded entry.
func (a *answers) verify(what string, spec func(int) query.Spec, eval evaluator) error {
	for i, got := range a {
		if got == "" {
			return fmt.Errorf("%s %d was not answered", what, i)
		}
		want, err := eval(spec(i))
		if err != nil {
			return err
		}
		if want != got {
			return fmt.Errorf("%s %d: server answer differs from an independent evaluation", what, i)
		}
	}
	return nil
}

// poolSpec is one query a workload replays: its spec, the request body and,
// for a corpus entry sent as pinned, the fingerprint the corpus pins for it.
type poolSpec struct {
	name        string
	spec        query.Spec
	body        []byte
	fingerprint string
}

// corpusSpecs returns the named entries of the pinned fingerprint corpus
// (internal/analysis/apilock/golden/fingerprints.json), bodies as pinned.
func corpusSpecs(names ...string) ([]poolSpec, error) {
	entries, err := apilock.Corpus()
	if err != nil {
		return nil, err
	}
	var out []poolSpec
	for _, name := range names {
		found := false
		for _, e := range entries {
			if e.Name != name {
				continue
			}
			p := poolSpec{name: name, body: e.Spec, fingerprint: e.Fingerprint}
			if err := json.Unmarshal(e.Spec, &p.spec); err != nil {
				return nil, fmt.Errorf("corpus entry %s: %w", name, err)
			}
			out, found = append(out, p), true
		}
		if !found {
			return nil, fmt.Errorf("corpus has no entry %s", name)
		}
	}
	return out, nil
}

// newPoolSpec makes a pool entry from a spec no corpus entry pins.
func newPoolSpec(name string, spec query.Spec) (poolSpec, error) {
	body, err := json.Marshal(spec)
	return poolSpec{name: name, spec: spec, body: body}, err
}

// --- hot and cold ------------------------------------------------------------

// hotCorpus are the corpus entries the hot workload replays. The corpus's
// other entries cost too much per request for a loop of cheap queries:
// rowyield-unaligned-mc runs 2000 Monte Carlo rounds (about 12 ms; it is
// the async workload's job), noise-margin searches the required pRm (0.25 to
// 0.4 s) and experiment-all-expanded regenerates every paper artifact.
var hotCorpus = []string{
	"pf-width-155", "pf-worst-corner-103", "wmin-chip-yield",
	"rowyield-aligned-closed-form", "sweep-corner-width-product",
}

// designSpace and relax360 are the queries of examples/design_space that a
// loop of cheap queries can carry: its corner x node x yield Wmin sweep (12
// specs in one request) and the Wmin under the paper's 360x correlation
// relaxation. Its deep-tail row-yield query (about 0.7 s) stays out.
var (
	designSpace = query.Spec{Kind: query.KindWmin, Sweep: &query.Sweep{
		Corners: []string{"worst", "mid", "best"},
		Nodes:   []string{"45nm", "22nm"},
		Yields:  []float64{0.90, 0.99},
	}}
	relax360 = query.Spec{Kind: query.KindWmin, RelaxFactor: 360}
)

// coldCorpus are the corpus entries the cold workload replays, and
// coldMaxWidthNM and coldGridStepNM the renewal grid it asks for. The
// entries need widths up to 155 nm. On the default 0.05 nm grid a sweep
// works on more than a core's L2 cache, so its time doubles whenever the
// host's other tenants fill the shared L3 (17 or 30 ms at 160 nm, switching
// from one request to the next); on a 0.1 nm grid it takes about 7 ms and
// stays steady. The Wmin entry stays out: its search needs a horizon of
// about 200 nm.
var (
	coldCorpus = []string{
		"pf-width-155", "pf-worst-corner-103",
		"rowyield-aligned-closed-form", "sweep-corner-width-product",
	}
	coldMaxWidthNM = 160.0
	coldGridStepNM = 0.1
)

// replayWorkload replays a fixed pool of queries, one client, in an order
// the seed draws.
//
// Hot runs on the store-backed server of set-up, whose sweep cache holds
// the default law's renewal table: its cost is routing, decoding,
// canonicalization, table lookups, closed-form yield math and encoding.
// Cold answers every request on a new server without a store (started
// untimed), so each request computes its renewal sweep.
type replayWorkload struct {
	seed   uint64
	regime string
	pool   []poolSpec
	fresh  bool
	// first and keys hold each pool spec's first response body and its
	// results; later responses must repeat them exactly.
	first [][]byte
	keys  []string
	// mismatch records a response whose fingerprint differs from the one
	// the corpus pins.
	mismatch error
}

func newHotWorkload(seed uint64) (workload, error) {
	pool, err := corpusSpecs(hotCorpus...)
	if err != nil {
		return nil, err
	}
	for _, extra := range []struct {
		name string
		spec query.Spec
	}{{"design-space", designSpace}, {"relax-360", relax360}} {
		p, err := newPoolSpec(extra.name, extra.spec)
		if err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	return newReplayWorkload(seed, "hot", pool, false), nil
}

func newColdWorkload(seed uint64) (workload, error) {
	corpus, err := corpusSpecs(coldCorpus...)
	if err != nil {
		return nil, err
	}
	var pool []poolSpec
	for _, c := range corpus {
		// The grid is part of the spec's fingerprint, so the corpus's
		// fingerprint no longer applies.
		c.spec.MaxWidthNM = coldMaxWidthNM
		c.spec.GridStepNM = coldGridStepNM
		p, err := newPoolSpec(c.name, c.spec)
		if err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	return newReplayWorkload(seed, "cold", pool, true), nil
}

func newReplayWorkload(seed uint64, regime string, pool []poolSpec, fresh bool) *replayWorkload {
	return &replayWorkload{
		seed: seed, regime: regime, pool: pool, fresh: fresh,
		first: make([][]byte, len(pool)),
		keys:  make([]string, len(pool)),
	}
}

func (w *replayWorkload) kernel() *kernel {
	if w.fresh {
		return convKernel
	}
	return jsonKernel
}

// reseat returns the heap's free memory to the OS, so that the tables the
// next requests allocate land on new physical pages; hot also restarts its
// server in between, which reloads the renewal table from the store.
func (w *replayWorkload) reseat(b *bench) error {
	if w.fresh {
		debug.FreeOSMemory()
		return nil
	}
	if err := b.stopServer(); err != nil {
		return err
	}
	debug.FreeOSMemory()
	return b.startServer(true)
}

// prepare gives a cold request its new server without a store.
func (w *replayWorkload) prepare(b *bench) error {
	if !w.fresh {
		return nil
	}
	if err := b.stopServer(); err != nil {
		return err
	}
	return b.startServer(false)
}

// warm answers every pool spec once, recording the responses the measured
// loop must reproduce and checking corpus fingerprints.
func (w *replayWorkload) warm(b *bench) error {
	for idx, p := range w.pool {
		if err := w.prepare(b); err != nil {
			return err
		}
		code, body, _ := b.serve(http.MethodPost, b.queryPath(), p.body)
		resp, err := decodeQuery(code, body)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if p.fingerprint != "" && resp.Fingerprint != p.fingerprint && w.mismatch == nil {
			w.mismatch = fmt.Errorf("%s: fingerprint %s, the corpus pins %s", p.name, resp.Fingerprint, p.fingerprint)
		}
		if w.keys[idx], _, err = resultsKey(resp.Results); err != nil {
			return err
		}
		w.first[idx] = body
	}
	return nil
}

func (w *replayWorkload) issue(b *bench, i int) sample {
	idx := pick(w.seed, 3, i, len(w.pool))
	p := w.pool[idx]
	if err := w.prepare(b); err != nil {
		return sample{err: err}
	}
	sp := b.requestSpan("request." + w.regime)
	sp.SetAttr("spec", p.name)
	code, body, wall := b.serve(http.MethodPost, b.queryPath(), p.body)
	sp.End()
	s := sample{wall: wall}
	if !b.opts.trace {
		// Untraced bodies are byte-identical per spec (no timings inside).
		if s.ok = code == http.StatusOK && bytes.Equal(body, w.first[idx]); !s.ok {
			s.err = fmt.Errorf("%s: status %d, body differs from its first answer", p.name, code)
		}
		return s
	}
	resp, err := decodeQuery(code, body)
	if err != nil {
		s.err = err
		return s
	}
	key, costs, err := resultsKey(resp.Results)
	if s.ok = err == nil && key == w.keys[idx] && len(costs) == len(resp.Results); !s.ok {
		s.err = fmt.Errorf("%s: answer differs from its first answer", p.name)
	}
	s.costs = costs
	return s
}

// verify recomputes every pool spec.
func (w *replayWorkload) verify(eval evaluator) error {
	if w.mismatch != nil {
		return w.mismatch
	}
	for idx, p := range w.pool {
		want, err := eval(p.spec)
		if err != nil {
			return err
		}
		if want != w.keys[idx] {
			return fmt.Errorf("%s %s: server answer differs from an independent evaluation", w.regime, p.name)
		}
	}
	return nil
}

// --- async -----------------------------------------------------------------

// asyncPoll is the client's polling interval.
const asyncPoll = time.Millisecond

// asyncWorkload submits the corpus's Monte Carlo row-yield query as jobs
// and polls them to completion: the job queue, the journal's checkpoint
// writes and the MC engine, with the renewal table already cached. One
// client submits one job at a time, so a job never waits for a slot and the
// single core runs one job at a time.
type asyncWorkload struct {
	seed     uint64
	base     query.Spec
	answered answers
}

func newAsyncWorkload(seed uint64) (workload, error) {
	pool, err := corpusSpecs("rowyield-unaligned-mc")
	if err != nil {
		return nil, err
	}
	return &asyncWorkload{seed: seed, base: pool[0].spec}, nil
}

func (w *asyncWorkload) kernel() *kernel { return mcKernel }

// reseat does nothing: job latency does not move with where the row model
// sits in memory.
func (w *asyncWorkload) reseat(*bench) error { return nil }

// spec is job i's query: the corpus spec with a Monte Carlo seed of its own,
// so no two jobs share an answer. Warm-up jobs use negative i.
func (w *asyncWorkload) spec(i int) query.Spec {
	spec := w.base
	spec.Seed = rng.SplitMix64(w.seed<<32^uint64(int64(i))) | 1
	return spec
}

// warm runs one job, which builds the row model of the spec's width.
func (w *asyncWorkload) warm(b *bench) error {
	if s := w.issue(b, -1); !s.ok {
		return fmt.Errorf("async warm-up job: %v", s.err)
	}
	return nil
}

func (w *asyncWorkload) issue(b *bench, i int) sample {
	spec := w.spec(i)
	body, err := json.Marshal(spec)
	if err != nil {
		return sample{}
	}
	// Jobs run detached from the submitting request's tracer, so the
	// submission asks for no cost breakdown.
	sp := b.requestSpan("job.async")
	defer sp.End()
	start := time.Now()
	code, resp, _ := b.serve(http.MethodPost, "/v2/query?async=1", body)
	var job server.JobJSON
	if code != http.StatusAccepted || json.Unmarshal(resp, &job) != nil || job.ID == "" {
		return sample{wall: time.Since(start), err: fmt.Errorf("submit: status %d: %s", code, resp)}
	}
	s := sample{}
	for job.State != server.JobDone && job.State != server.JobFailed {
		time.Sleep(asyncPoll)
		s.polls++
		code, resp, _ = b.serve(http.MethodGet, "/v1/jobs/"+job.ID, nil)
		job = server.JobJSON{}
		if code != http.StatusOK || json.Unmarshal(resp, &job) != nil {
			s.wall, s.err = time.Since(start), fmt.Errorf("poll: status %d: %s", code, resp)
			return s
		}
	}
	s.wall = time.Since(start)
	sp.SetAttr("job", job.ID)
	if job.State != server.JobDone {
		s.err = fmt.Errorf("job %s failed: %s", job.ID, job.Error)
		return s
	}
	if s.err = checkAsyncAnswer(spec, job); s.err != nil {
		return s
	}
	key, _, err := resultsKey(job.QueryResults)
	if err != nil {
		s.err = err
		return s
	}
	w.answered.record(i, key)
	s.ok = true
	if b.opts.trace && job.StartedAt != nil && job.FinishedAt != nil {
		s.job = true
		s.queueMS = float64(job.StartedAt.Sub(job.CreatedAt)) / float64(time.Millisecond)
		s.runMS = float64(job.FinishedAt.Sub(*job.StartedAt)) / float64(time.Millisecond)
	}
	return s
}

// checkAsyncAnswer checks a finished job: one result answering the spec's
// width with its full round budget and a probability in [0, 1].
func checkAsyncAnswer(spec query.Spec, job server.JobJSON) error {
	if job.Total != 1 || len(job.QueryResults) != 1 {
		return fmt.Errorf("job %s: %d of %d results, want 1", job.ID, len(job.QueryResults), job.Total)
	}
	ry := job.QueryResults[0].RowYield
	if ry == nil || ry.WidthNM != spec.WidthNM || ry.Rounds != spec.Rounds {
		return fmt.Errorf("job %s: result does not answer its spec", job.ID)
	}
	if !(ry.PRF >= 0 && ry.PRF <= 1) {
		return fmt.Errorf("job %s: pRF %g out of [0, 1]", job.ID, ry.PRF)
	}
	return nil
}

func (w *asyncWorkload) verify(eval evaluator) error {
	return w.answered.verify("async job", w.spec, eval)
}
