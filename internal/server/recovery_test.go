package server

// Robustness acceptance suite: crash recovery from the job journal,
// overload shedding on every compute route, per-request isolation,
// request deadlines, admission-bound contracts and an in-process chaos run
// with armed failpoints. The fault registry is global
// process state, so none of these tests run in parallel and every one that
// arms a site registers fault.Reset as cleanup first.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/jobstore"
	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/sweepstore"
)

// postRaw posts a JSON payload with extra headers and returns status, body
// and response headers (getBody's POST counterpart).
func postRaw(t *testing.T, url string, payload any, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// pollJob polls /v1/jobs/{id} until the job reaches a terminal state.
func pollJob(t *testing.T, base, id string) JobJSON {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	var job JobJSON
	for {
		if code := getJSON(t, base+"/v1/jobs/"+id, &job); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if job.State == JobDone || job.State == JobFailed {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submitAsync submits an async query sweep and returns the accepted job.
func submitAsync(t *testing.T, base string, spec query.Spec) JobJSON {
	t.Helper()
	code, body, _ := postRaw(t, base+"/v2/query?async=1", spec, nil)
	if code != http.StatusAccepted {
		t.Fatalf("async submit status %d: %s", code, body)
	}
	var job JobJSON
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	return job
}

// TestJobJournalPutsPerJob pins the journal traffic of a job: one put when
// queued, one when it starts running, one per progress checkpoint and one
// terminal put. The last result gets no checkpoint of its own, because the
// terminal record written right after carries the same prefix.
func TestJobJournalPutsPerJob(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec query.Spec
		want uint64
	}{
		{"single", query.Spec{Kind: "pf", WidthNM: 155}, 3},
		{"sweep", query.Spec{Kind: "pf", WidthNM: 155,
			Sweep: &query.Sweep{WidthsNM: []float64{100, 150, 200}}}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal, err := jobstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Params: testParams(), Jobs: journal})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			job := pollJob(t, ts.URL, submitAsync(t, ts.URL, tc.spec).ID)
			if job.State != JobDone {
				t.Fatalf("job = %+v", job)
			}
			// Close drains the engine, so the terminal put has landed.
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if got := journal.Stats().Puts; got != tc.want {
				t.Fatalf("journal puts = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestJobRecoveryAcrossRestart is the crash-recovery acceptance test: a
// journal holding a terminal record and a mid-sweep "running" record (the
// exact state a SIGKILL leaves behind) is adopted by a fresh server, the
// interrupted job resumes from its checkpointed prefix, and its final
// results are byte-identical to the uninterrupted run. Record IDs are
// chosen so lexical order disagrees with creation order (job-2 vs job-10),
// and the ID counter must continue above every adopted ID.
func TestJobRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	journal, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First life: run one async sweep to completion so the journal holds a
	// genuine done record, and capture the sync answer as the byte baseline.
	spec := query.Spec{Kind: "pf", WidthNM: 155,
		Sweep: &query.Sweep{WidthsNM: []float64{100, 150, 200}}}
	srvA, err := New(Config{Params: testParams(), Jobs: journal})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	jobA := submitAsync(t, tsA.URL, spec)
	jobA = pollJob(t, tsA.URL, jobA.ID)
	if jobA.State != JobDone || len(jobA.QueryResults) != 3 {
		t.Fatalf("first-life job = %+v", jobA)
	}
	syncCode, syncResp, _ := postV2(t, tsA.URL, spec)
	if syncCode != http.StatusOK {
		t.Fatalf("sync status %d", syncCode)
	}
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge the crash: reuse the done record's spec to journal job-10 as
	// "running" with a one-result checkpoint (what a kill mid-sweep leaves)
	// and job-2 as finished history whose lexical order is wrong.
	recs, err := journal.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].State != JobDone {
		t.Fatalf("journal after first life = %+v", recs)
	}
	base := recs[0]
	fullResults := base.Results

	done2 := base
	done2.ID = "job-2"
	if err := journal.Put(done2); err != nil {
		t.Fatal(err)
	}
	var prefix []query.Result
	if err := json.Unmarshal(base.Results, &prefix); err != nil {
		t.Fatal(err)
	}
	prefixJSON, err := json.Marshal(prefix[:1])
	if err != nil {
		t.Fatal(err)
	}
	crashed := base
	crashed.ID = "job-10"
	crashed.State = JobRunning
	crashed.Results = prefixJSON
	crashed.Done = 1
	crashed.Finished = time.Time{}
	if err := journal.Put(crashed); err != nil {
		t.Fatal(err)
	}

	// Second life: adoption must serve the history and resume the crash.
	_, tsB := newTestServer(t, Config{Jobs: journal})
	var history JobJSON
	if code := getJSON(t, tsB.URL+"/v1/jobs/job-2", &history); code != http.StatusOK {
		t.Fatalf("adopted history status %d", code)
	}
	if history.State != JobDone || len(history.QueryResults) != 3 {
		t.Fatalf("adopted history = %+v", history)
	}

	resumed := pollJob(t, tsB.URL, "job-10")
	if resumed.State != JobDone {
		t.Fatalf("resumed job failed: %s", resumed.Error)
	}
	if resumed.Done != 3 || resumed.Total != 3 || len(resumed.QueryResults) != 3 {
		t.Fatalf("resumed progress = %d/%d, %d results",
			resumed.Done, resumed.Total, len(resumed.QueryResults))
	}
	// Byte identity across the restart: the resumed job's results marshal
	// exactly as the uninterrupted first-life run journaled them...
	resumedJSON, err := json.Marshal(resumed.QueryResults)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumedJSON) != string(fullResults) {
		t.Fatalf("resumed results differ from pre-crash run:\n%s\n%s", resumedJSON, fullResults)
	}
	// ...and match the second life's own sync evaluation bit for bit.
	for i := range syncResp.Results {
		wantPF, err := json.Marshal(resumed.QueryResults[i].PF)
		if err != nil {
			t.Fatal(err)
		}
		if got := compact(t, syncResp.Results[i].PF); got != string(wantPF) {
			t.Fatalf("resumed/sync mismatch at %d:\n%s\n%s", i, wantPF, got)
		}
	}

	// The ID counter continued above the highest adopted ID.
	next := submitAsync(t, tsB.URL, query.Spec{Kind: "pf", WidthNM: 120})
	if next.ID != "job-11" {
		t.Fatalf("post-adoption ID = %q, want job-11", next.ID)
	}
	pollJob(t, tsB.URL, next.ID)
}

// TestJobsFullRetryAfter pins the admission-rejection contract: a full job
// queue answers 503 with a Retry-After hint and a retryable error
// envelope. A delay failpoint holds the first job open so the bound is hit
// deterministically instead of racing the sweep.
func TestJobsFullRetryAfter(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable(fault.SiteJobRun, "delay(1500ms)"); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{MaxJobs: 1, ConcurrentJobs: 1})

	first := submitAsync(t, ts.URL, query.Spec{Kind: "pf", WidthNM: 110})
	if first.State != JobQueued && first.State != JobRunning {
		t.Fatalf("first job state = %q", first.State)
	}
	code, body, hdr := postRaw(t, ts.URL+"/v2/query?async=1",
		query.Spec{Kind: "pf", WidthNM: 111}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("second submit status %d: %s", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q", ra)
	}
	var envelope ErrorJSON
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if envelope.Error.Code != "unavailable" || !envelope.Error.Retryable {
		t.Fatalf("envelope = %+v", envelope)
	}
	if !strings.Contains(envelope.Error.Message, "retry") {
		t.Fatalf("message = %q", envelope.Error.Message)
	}
}

// TestSyncSweepShedding pins graceful degradation under load on every
// compute route: with the one in-flight slot held by a stalled evaluation,
// further requests shed with a retryable 503, ETag revalidations still
// answer 304, and the shed counter surfaces in /v1/stats.
func TestSyncSweepShedding(t *testing.T) {
	t.Cleanup(fault.Reset)
	_, ts := newTestServer(t, Config{MaxInFlightSweeps: 1})

	warm := query.Spec{Kind: "pf", WidthNM: 120}
	routes := []struct {
		method, path string
		body         any
	}{
		{http.MethodGet, "/v1/pf?width=120", nil},
		{http.MethodGet, "/v1/wmin?corner=mid", nil},
		{http.MethodGet, "/v1/rowyield?scenario=aligned&width=120", nil},
		{http.MethodPost, "/v1/pf/batch", map[string]any{"points": []map[string]any{{"width_nm": 120.0}}}},
		{http.MethodPost, "/v2/query", warm},
	}
	send := func(method, path string, body any, hdr map[string]string) (int, []byte, http.Header) {
		if method == http.MethodGet {
			return getBody(t, ts.URL+path, hdr)
		}
		return postRaw(t, ts.URL+path, body, hdr)
	}

	// Warm every route (and learn the ETags) before arming the stall:
	// revalidations never reach Session.Evaluate, so probes stay fast.
	etags := make([]string, len(routes))
	for i, rt := range routes {
		code, body, hdr := send(rt.method, rt.path, rt.body, nil)
		if code != http.StatusOK {
			t.Fatalf("warm %s: status %d: %s", rt.path, code, body)
		}
		etags[i] = hdr.Get("ETag")
		if etags[i] == "" && rt.path != "/v1/pf/batch" {
			t.Fatalf("warm %s carried no ETag", rt.path)
		}
	}

	// times=1: only the stalled goroutine's evaluation sleeps; the probes
	// below either shed at the admission gate or answer 304 before it.
	if err := fault.Enable(fault.SiteQueryEvaluate, "delay(2500ms)@times=1"); err != nil {
		t.Fatal(err)
	}
	stalled := make(chan int, 1)
	go func() {
		c, _, _ := postRaw(t, ts.URL+"/v2/query", query.Spec{Kind: "pf", WidthNM: 130}, nil)
		stalled <- c
	}()

	// The delay's fired counter flips exactly when the goroutine is asleep
	// inside Evaluate — holding the only in-flight slot. Stats requests
	// never touch that slot, so polling them is safe.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats StatsJSON
		if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
			t.Fatalf("stats status %d", code)
		}
		var fired uint64
		for _, fs := range stats.Faults {
			if fs.Site == fault.SiteQueryEvaluate {
				fired = fs.Fired
			}
		}
		if fired >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled sweep never reached its evaluation")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for i, rt := range routes {
		// With the slot held, every compute route sheds: retryable 503 with
		// a Retry-After hint.
		c, shedBody, h := send(rt.method, rt.path, rt.body, nil)
		if c != http.StatusServiceUnavailable {
			t.Fatalf("%s while saturated: status %d: %s", rt.path, c, shedBody)
		}
		if ra := h.Get("Retry-After"); ra != "1" {
			t.Fatalf("%s shed Retry-After = %q", rt.path, ra)
		}
		var envelope ErrorJSON
		if err := json.Unmarshal(shedBody, &envelope); err != nil {
			t.Fatal(err)
		}
		if envelope.Error.Code != "unavailable" || !envelope.Error.Retryable {
			t.Fatalf("%s shed envelope = %+v", rt.path, envelope)
		}

		// Degradation contract: revalidation answers before the in-flight
		// bound, so a 304 goes out even while cold work is being shed.
		if etags[i] == "" {
			continue
		}
		code, _, _ := send(rt.method, rt.path, rt.body, map[string]string{"If-None-Match": etags[i]})
		if code != http.StatusNotModified {
			t.Fatalf("%s revalidation while shedding: status %d", rt.path, code)
		}
	}

	if c := <-stalled; c != http.StatusOK {
		t.Fatalf("stalled sweep finished with %d", c)
	}
	var stats StatsJSON
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.ShedRequests != uint64(len(routes)) {
		t.Fatalf("shed_requests = %d, want %d", stats.ShedRequests, len(routes))
	}
}

// TestLeaderDisconnectIsolated pins per-request evaluation: when a client
// disconnects mid-evaluation, a second client asking for the same answer
// at the same time still gets it. The first evaluation is held in a delay
// failpoint; the http.request site is armed with a no-op delay only to
// count requests entering the server.
func TestLeaderDisconnectIsolated(t *testing.T) {
	t.Cleanup(fault.Reset)
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/pf?width=155&corner=worst"
	if err := fault.EnableSpecs("query.evaluate=delay(300ms)@nth=1;http.request=delay(0s)"); err != nil {
		t.Fatal(err)
	}
	counts := func(site string) (calls, fired uint64) {
		for _, fs := range fault.Stats() {
			if fs.Site == site {
				return fs.Calls, fs.Fired
			}
		}
		return 0, 0
	}
	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor("the leader's evaluation", func() bool { _, fired := counts(fault.SiteQueryEvaluate); return fired == 1 })

	type reply struct {
		code int
		body []byte
		err  error
	}
	follower := make(chan reply, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			follower <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		follower <- reply{code: resp.StatusCode, body: body, err: err}
	}()
	waitFor("the follower's request", func() bool { calls, _ := counts(fault.SiteHTTPRequest); return calls == 2 })
	cancel()
	<-leaderDone

	got := <-follower
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.code != http.StatusOK {
		t.Fatalf("follower status %d after the leader disconnected: %s", got.code, got.body)
	}
	fault.Reset()
	code, want, _ := getBody(t, url, nil)
	if code != http.StatusOK || compact(t, got.body) != compact(t, want) {
		t.Fatalf("follower body differs from an undisturbed request (status %d)\n%s\n%s", code, got.body, want)
	}
}

// TestRequestTimeoutSheds pins the deadline contract: a request exceeding
// Config.RequestTimeout is cut off and answered with a retryable 503, not
// a 500 — the work is fine, the deadline was just too tight.
func TestRequestTimeoutSheds(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable(fault.SiteQueryEvaluate, "delay(10s)"); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{RequestTimeout: 100 * time.Millisecond})

	start := time.Now()
	code, body, _ := postRaw(t, ts.URL+"/v2/query", query.Spec{Kind: "pf", WidthNM: 140}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", code, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: took %s", elapsed)
	}
	var envelope ErrorJSON
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if !envelope.Error.Retryable {
		t.Fatalf("envelope = %+v", envelope)
	}
}

// A sync Monte Carlo query that cannot finish inside the request deadline
// must answer the retryable 503 at the deadline, not after its rounds: the
// engine checks the request context at every round batch. Uncancelled,
// this 1M-round unaligned run takes several seconds on two workers.
func TestRequestTimeoutCancelsMonteCarlo(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Second})
	// Warm the sweep so the deadline lands in the Monte Carlo rounds.
	spec := query.Spec{Kind: "rowyield", Scenario: "unaligned", WidthNM: 142.7, Rounds: 2}
	if code, body, _ := postRaw(t, ts.URL+"/v2/query", spec, nil); code != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", code, body)
	}

	spec.Rounds = 1_000_000
	start := time.Now()
	code, body, _ := postRaw(t, ts.URL+"/v2/query", spec, nil)
	elapsed := time.Since(start)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d after %s: %s", code, elapsed, body)
	}
	var envelope ErrorJSON
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if !envelope.Error.Retryable {
		t.Fatalf("envelope = %+v", envelope)
	}
	// The deadline is 1 s and a round batch takes about a millisecond;
	// the bound leaves room for a loaded test host.
	if elapsed > 2*time.Second {
		t.Fatalf("Monte Carlo ignored the request deadline: 503 after %s", elapsed)
	}
	t.Logf("503 after %s", elapsed)
}

// TestChaosJobsReachTerminalStates is the in-process chaos harness: with
// journal writes failing probabilistically, evaluations randomly delayed
// and one injected job failure, every submitted job still reaches a
// terminal state, failures surface as envelope errors (never a wedged job
// or a crashed server), and disarming the faults restores clean runs. The
// job.result panic action is deliberately NOT armed here — it kills the
// whole process by design and belongs to the shell-level chaos harness.
func TestChaosJobsReachTerminalStates(t *testing.T) {
	t.Cleanup(fault.Reset)
	store, err := sweepstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	journal, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.EnableSpecs(
		"journal.put=error(chaos: journal write)@p=0.4,seed=3;" +
			"store.save=error(chaos: store write)@p=0.5,seed=9;" +
			"query.evaluate=delay(1ms)@p=0.5,seed=5;" +
			"job.run=error(chaos: injected job failure)@nth=3"); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{MaxJobs: 16, ConcurrentJobs: 2, Store: store, Jobs: journal})

	widths := []float64{100, 110, 120, 130}
	ids := make([]string, 0, len(widths))
	for _, w := range widths {
		job := submitAsync(t, ts.URL, query.Spec{Kind: "pf", WidthNM: w,
			Sweep: &query.Sweep{WidthsNM: []float64{w, w + 5}}})
		ids = append(ids, job.ID)
	}
	var failed int
	for _, id := range ids {
		job := pollJob(t, ts.URL, id)
		switch job.State {
		case JobDone:
			if len(job.QueryResults) != 2 {
				t.Errorf("%s done with %d results", id, len(job.QueryResults))
			}
		case JobFailed:
			failed++
			if !strings.Contains(job.Error, "injected") {
				t.Errorf("%s failed with non-injected error %q", id, job.Error)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("failed jobs = %d, want exactly 1 (nth=3 fires once)", failed)
	}

	// The server is still fully alive under fire: sync queries answer and
	// stats report the chaos (armed sites with traffic, journal errors).
	code, _, _ := postV2(t, ts.URL, query.Spec{Kind: "pf", WidthNM: 150})
	if code != http.StatusOK {
		t.Fatalf("sync query under chaos: status %d", code)
	}
	var stats StatsJSON
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if len(stats.Faults) != 4 {
		t.Fatalf("faults = %+v", stats.Faults)
	}
	var journalCalls uint64
	for _, fs := range stats.Faults {
		if fs.Site == fault.SiteJournalPut {
			journalCalls = fs.Calls
		}
	}
	if journalCalls == 0 {
		t.Fatal("journal.put site saw no traffic")
	}
	if stats.Journal == nil || stats.Journal.Retries == 0 {
		t.Fatalf("journal stats = %+v, want retried puts", stats.Journal)
	}

	// Disarm and recover: the next job runs clean.
	fault.Reset()
	job := submitAsync(t, ts.URL, query.Spec{Kind: "pf", WidthNM: 160})
	if job = pollJob(t, ts.URL, job.ID); job.State != JobDone {
		t.Fatalf("post-chaos job failed: %s", job.Error)
	}
	var clean StatsJSON
	getJSON(t, ts.URL+"/v1/stats", &clean)
	if len(clean.Faults) != 0 {
		t.Fatalf("faults after reset = %+v", clean.Faults)
	}
}

// TestJournalPutFailureSurfaces pins the degraded-durability contract: a
// journal disk that always fails is retried until the attempts are spent,
// then surfaces as put_errors and engine_errors, and the job still runs to
// completion.
func TestJournalPutFailureSurfaces(t *testing.T) {
	t.Cleanup(fault.Reset)
	journal, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable(fault.SiteJournalPut, "error(dead journal disk)"); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Jobs: journal})
	job := pollJob(t, ts.URL, submitAsync(t, ts.URL, query.Spec{Kind: "pf", WidthNM: 155}).ID)
	if job.State != JobDone {
		t.Fatalf("job = %+v, want done despite the journal", job)
	}
	srv.jobs.drain() // the terminal put has been tried
	var stats StatsJSON
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK || stats.Journal == nil {
		t.Fatalf("stats status %d, journal %+v", code, stats.Journal)
	}
	// Three puts (queued, running, done), each tried three times.
	want := JournalStatsJSON{Dir: journal.Dir(), PutErrors: 3, Retries: 6, EngineErrors: 3,
		LastError: stats.Journal.LastError}
	if *stats.Journal != want || !strings.Contains(want.LastError, "dead journal disk") {
		t.Fatalf("journal stats = %+v, want %+v", *stats.Journal, want)
	}
}

// TestStoreLoadFaultSparesJournal arms the sweep store's read failpoint
// across a restart. Every sweep record is skipped, but the journal fires
// its own load site, so the interrupted job is still adopted; it resumes
// on cold sweeps and finishes byte-identical to the uninterrupted run.
func TestStoreLoadFaultSparesJournal(t *testing.T) {
	t.Cleanup(fault.Reset)
	store, err := sweepstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	journal, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := query.Spec{Kind: "pf", WidthNM: 155,
		Sweep: &query.Sweep{WidthsNM: []float64{100, 150, 200}}}
	srvA, err := New(Config{Params: testParams(), Store: store, Jobs: journal})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	if job := pollJob(t, tsA.URL, submitAsync(t, tsA.URL, spec).ID); job.State != JobDone {
		t.Fatalf("first-life job = %+v", job)
	}
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Saves == 0 {
		t.Fatal("first life persisted no sweep records")
	}

	// Forge the crash: the job is journaled running with one result.
	recs, err := journal.LoadAll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("journal after first life = %+v, %v", recs, err)
	}
	full := recs[0].Results
	var results []query.Result
	if err := json.Unmarshal(full, &results); err != nil {
		t.Fatal(err)
	}
	crashed := recs[0]
	crashed.State, crashed.Done, crashed.Finished = JobRunning, 1, time.Time{}
	if crashed.Results, err = json.Marshal(results[:1]); err != nil {
		t.Fatal(err)
	}
	if err := journal.Put(crashed); err != nil {
		t.Fatal(err)
	}

	if err := fault.Enable(fault.SiteStoreLoad, "error(chaos: store read)"); err != nil {
		t.Fatal(err)
	}
	store, err = sweepstore.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	journal, err = jobstore.Open(journal.Dir())
	if err != nil {
		t.Fatal(err)
	}
	srvB, tsB := newTestServer(t, Config{Store: store, Jobs: journal})
	resumed := pollJob(t, tsB.URL, crashed.ID)
	if resumed.State != JobDone {
		t.Fatalf("resumed job = %+v", resumed)
	}
	got, err := json.Marshal(resumed.QueryResults)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(full) {
		t.Fatalf("resumed results differ from the uninterrupted run:\n%s\n%s", got, full)
	}
	if st := store.Stats(); st.Loads != 0 || st.Rejects == 0 || st.Quarantined != 0 {
		t.Fatalf("sweep store stats = %+v, want every record skipped unquarantined", st)
	}
	if st := journal.Stats(); st.Loads != 1 {
		t.Fatalf("journal stats = %+v, want the record adopted", st)
	}
	if n := srvB.session.Cache().Stats().Sweeps; n == 0 {
		t.Fatal("resumed job swept nothing: the store was not skipped")
	}
}

// TestEvictionCleansJournal pins journal hygiene: evicting finished jobs
// from the bounded history also deletes their journal records, so a
// long-lived server's journal directory stays bounded by MaxJobs and never
// accumulates temp files.
func TestEvictionCleansJournal(t *testing.T) {
	dir := t.TempDir()
	journal, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{MaxJobs: 2, ConcurrentJobs: 2, Jobs: journal})

	var lastID, firstID string
	for i := 0; i < 5; i++ {
		job := submitAsync(t, ts.URL, query.Spec{Kind: "pf", WidthNM: 100 + float64(i)})
		if job = pollJob(t, ts.URL, job.ID); job.State != JobDone {
			t.Fatalf("job %d failed: %s", i, job.Error)
		}
		if i == 0 {
			firstID = job.ID
		}
		lastID = job.ID
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/"+firstID, nil); code != http.StatusNotFound {
		t.Fatalf("evicted job status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+lastID, nil); code != http.StatusOK {
		t.Fatalf("retained job status %d", code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recordFiles int
	for _, de := range entries {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".partial"):
			t.Errorf("leftover temp file %s", name)
		case strings.HasSuffix(name, ".job"):
			recordFiles++
		default:
			t.Errorf("unexpected file %s", name)
		}
	}
	if recordFiles > 2 {
		t.Fatalf("journal holds %d records, retention bound is 2", recordFiles)
	}
}

// TestRetiredJobKindDropped pins adoption of a journal written before
// experiment jobs became experiment-kind query jobs: a record of the
// retired "experiments" kind, hand-encoded in the journal's on-disk format
// with its old fields, is dropped and counted as a journal error, while
// the open query record next to it resumes.
func TestRetiredJobKindDropped(t *testing.T) {
	dir := t.TempDir()
	created := time.Date(2026, 8, 8, 1, 2, 3, 0, time.UTC)
	retired := []byte(`{"id":"job-1","kind":"experiments","state":"done",` +
		`"experiments":["fig2.2a"],"workers":2,"results":[{"name":"fig2.2a"}],` +
		`"created":"2026-08-08T01:02:03Z"}`)
	file := append([]byte("CNFJOB\x00\x01"), retired...)
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(retired))
	if err := os.WriteFile(filepath.Join(dir, "job-1.job"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	journal, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	canon, fp, err := query.Spec{Kind: "pf", WidthNM: 155}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Put(jobstore.Record{ID: "job-2", Kind: JobKindQuery, State: JobRunning,
		Spec: spec, Fingerprint: fp, Total: 1, Created: created}); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Jobs: journal})
	if code := getJSON(t, ts.URL+"/v1/jobs/job-1", nil); code != http.StatusNotFound {
		t.Fatalf("retired-kind job status %d, want 404", code)
	}
	if job := pollJob(t, ts.URL, "job-2"); job.State != JobDone || len(job.QueryResults) != 1 {
		t.Fatalf("resumed query job = %+v", job)
	}
	var stats StatsJSON
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Journal == nil || stats.Journal.EngineErrors != 1 ||
		!strings.Contains(stats.Journal.LastError, `unknown kind "experiments"`) {
		t.Fatalf("journal stats = %+v, want the retired record counted", stats.Journal)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-1.job")); !os.IsNotExist(err) {
		t.Fatalf("retired record still journaled: %v", err)
	}
}

// TestJobResultPanicEscapesExecute pins the chaos contract now that a job's
// progress callbacks run on the job goroutine, under execute's recover: an
// armed job.result panic is re-raised past that recover (on the job
// goroutine, which has no other, it ends the process), while any other
// panic still only fails the job.
func TestJobResultPanicEscapesExecute(t *testing.T) {
	t.Cleanup(fault.Reset)
	session, err := query.NewSession(query.Options{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	e := newJobEngine(session, 4, 1, nil)
	p, err := query.Spec{Kind: "pf", WidthNM: 155, Sweep: &query.Sweep{WidthsNM: []float64{100, 150}}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.EnableSpecs("job.result=panic@nth=1"); err != nil {
		t.Fatal(err)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = e.execute(context.Background(), &jobRecord{plan: p, total: p.ExpandCount()})
		return nil
	}()
	if pv, ok := got.(fault.PanicValue); !ok || pv.Site != fault.SiteJobResult {
		t.Fatalf("execute let through %v, want the job.result panic", got)
	}

	fault.Reset()
	if err := fault.EnableSpecs("job.run=panic"); err != nil {
		t.Fatal(err)
	}
	err = e.execute(context.Background(), &jobRecord{plan: p, total: p.ExpandCount()})
	if err == nil || !strings.Contains(err.Error(), "job panicked") {
		t.Fatalf("job.run panic: err = %v, want a failed job", err)
	}
}

// TestJobResumeOnPool pins the one job path: an adopted job runs the
// suffix after its journaled prefix through Session.Run on the session's
// pool — two workers here, so a helper evaluates part of a four-spec
// suffix — and ends byte-identical to an uninterrupted run, with absolute
// progress and the fresh job's journal stride. An armed job.result error
// action fails neither a fresh nor a resumed job, and a journaled prefix
// longer than the expansion is distrusted: the job reruns from zero.
func TestJobResumeOnPool(t *testing.T) {
	t.Cleanup(fault.Reset)
	session, err := query.NewSession(query.Options{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := query.Spec{Kind: "pf", WidthNM: 155,
		Sweep: &query.Sweep{WidthsNM: []float64{100, 120, 140, 160, 180, 200}}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	full, err := session.Run(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.EnableSpecs("job.result=error(chaos: result)"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		prefix []query.Result
		puts   uint64
	}{
		{"fresh", nil, 5},
		{"resumed", full[:2], 3},
		{"overlong", append(slices.Clone(full), full[0]), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal, err := jobstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			e := newJobEngine(session, 4, 1, journal)
			j := &jobRecord{id: "job-1", state: JobRunning, plan: p, total: len(full),
				results: slices.Clone(tc.prefix), done: len(tc.prefix)}
			if err := e.execute(context.Background(), j); err != nil {
				t.Fatalf("execute: %v", err)
			}
			got, err := json.Marshal(j.results)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(fullJSON) {
				t.Fatalf("results differ from the uninterrupted run:\n%s\n%s", got, fullJSON)
			}
			if j.done != 6 || j.total != 6 {
				t.Fatalf("progress = %d/%d, want 6/6", j.done, j.total)
			}
			// Stride 1 over six specs: one checkpoint per result past the
			// prefix, except the last, which the terminal record carries.
			if puts := journal.Stats().Puts; puts != tc.puts {
				t.Fatalf("journal puts = %d, want %d", puts, tc.puts)
			}
			recs, err := journal.LoadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || recs[0].Done != 5 || recs[0].Total != 6 {
				t.Fatalf("last checkpoint = %+v, want 5/6", recs)
			}
		})
	}
}

// TestOldEpochJournalRecordRerunsFromZero pins epoch adoption: a "running"
// record whose result prefix was computed under another numerics epoch (a
// record with no epoch reads 0, the numbers before epochs existed) reruns
// from zero instead of appending this build's numbers to the old prefix,
// while a finished record of the same epoch comes back as history,
// unchanged.
func TestOldEpochJournalRecordRerunsFromZero(t *testing.T) {
	journal, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := query.Spec{Kind: "pf", WidthNM: 155,
		Sweep: &query.Sweep{WidthsNM: []float64{100, 150, 200}}}
	srvA, err := New(Config{Params: testParams(), Jobs: journal})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	if job := pollJob(t, tsA.URL, submitAsync(t, tsA.URL, spec).ID); job.State != JobDone {
		t.Fatalf("first-life job = %+v", job)
	}
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Epoch != query.NumericsEpoch {
		t.Fatalf("journal after first life = %+v, want one record of epoch %d", recs, query.NumericsEpoch)
	}
	base := recs[0]

	// The old epoch's numbers: the same prefix with a different pF, which
	// a resume would keep and a rerun replaces.
	var prefix []query.Result
	if err := json.Unmarshal(base.Results, &prefix); err != nil {
		t.Fatal(err)
	}
	prefix[0].PF.PF *= 2
	oldPrefix, err := json.Marshal(prefix[:1])
	if err != nil {
		t.Fatal(err)
	}
	history := base
	history.ID, history.Epoch, history.Results = "job-2", 0, oldPrefix
	crashed := base
	crashed.ID, crashed.Epoch, crashed.State = "job-3", 0, JobRunning
	crashed.Results, crashed.Done, crashed.Finished = oldPrefix, 1, time.Time{}
	for _, rec := range []jobstore.Record{history, crashed} {
		if err := journal.Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	_, tsB := newTestServer(t, Config{Jobs: journal})
	var old JobJSON
	if code := getJSON(t, tsB.URL+"/v1/jobs/job-2", &old); code != http.StatusOK {
		t.Fatalf("adopted history status %d", code)
	}
	if got, err := json.Marshal(old.QueryResults); err != nil || string(got) != string(oldPrefix) {
		t.Fatalf("adopted history results = %s (%v), want them as journaled: %s", got, err, oldPrefix)
	}
	rerun := pollJob(t, tsB.URL, "job-3")
	if rerun.State != JobDone {
		t.Fatalf("rerun job failed: %s", rerun.Error)
	}
	got, err := json.Marshal(rerun.QueryResults)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(base.Results) {
		t.Fatalf("old-epoch job resumed instead of rerunning:\n got %s\nwant %s", got, base.Results)
	}
}

// TestJobDoneImpliesDurable pins the order of a job's last two steps: its
// terminal record is journaled before the job is reported finished, so a
// client that sees "done" never finds the journal behind it. A delay on
// every journal put holds the terminal write open long enough for a
// tight poll to see a state published before its write.
func TestJobDoneImpliesDurable(t *testing.T) {
	t.Cleanup(fault.Reset)
	journal, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Jobs: journal})
	if err := fault.Enable(fault.SiteJournalPut, "delay(100ms)"); err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		id := submitAsync(t, ts.URL, query.Spec{Kind: "pf", WidthNM: 150 + float64(i)}).ID
		deadline := time.Now().Add(time.Minute)
		for {
			job, ok := srv.jobs.get(id)
			if !ok {
				t.Fatalf("job %s vanished", id)
			}
			if job.State == JobDone || job.State == JobFailed {
				recs, err := journal.LoadAll()
				if err != nil {
					t.Fatal(err)
				}
				i := slices.IndexFunc(recs, func(r jobstore.Record) bool { return r.ID == id })
				if i < 0 || recs[i].State != job.State {
					t.Fatalf("job %s reported %q before its journal record was", id, job.State)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", id, job.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
