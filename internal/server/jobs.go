package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/jobstore"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/query"
)

// Job states, in lifecycle order.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobKindQuery is the one job kind: a QuerySpec evaluated by the job
// engine, submitted by POST /v2/query?async=1 or, as an experiment-kind
// spec, by POST /v1/experiments. Journal records of any other kind are
// dropped on adoption.
const JobKindQuery = "query"

// JobJSON is the wire form of one job.
type JobJSON struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Query echoes the job's canonical spec and Fingerprint its stable
	// identity; QueryResults grows in expansion order while the sweep runs
	// (checkpointed partial results), and Done/Total report its progress.
	Query        *query.Spec    `json:"query,omitempty"`
	Fingerprint  string         `json:"fingerprint,omitempty"`
	QueryResults []query.Result `json:"query_results,omitempty"`
	Done         int            `json:"done,omitempty"`
	Total        int            `json:"total,omitempty"`
	CreatedAt    time.Time      `json:"created_at"`
	StartedAt    *time.Time     `json:"started_at,omitempty"`
	FinishedAt   *time.Time     `json:"finished_at,omitempty"`
}

type jobRecord struct {
	id    string
	state string
	err   string

	// ctx is the submitter's request context. The job deliberately
	// outlives the request: run detaches cancellation (and the request's
	// tracer) before evaluating, keeping only the request's values.
	ctx context.Context

	plan    query.Plan
	results []query.Result
	done    int
	total   int

	created  time.Time
	started  time.Time
	finished time.Time
}

// jobEngine runs jobs on a bounded pool and retains a bounded history.
// Each job parallelizes internally on the session's worker pool; the
// engine's own bound limits how many jobs compute at once.
//
// With a journal attached, every admitted job is durable: its spec,
// state transitions and a stride-throttled prefix of its results are
// persisted, so a process death loses at most the work since the last
// checkpoint, never the job itself. adopt restores the journal on the
// next start.
type jobEngine struct {
	session *query.Session

	mu      sync.Mutex
	jobs    map[string]*jobRecord
	order   []string // creation order, for eviction of finished jobs
	maxJobs int
	nextID  int

	sem chan struct{} // bounds concurrently running jobs
	wg  sync.WaitGroup

	// journal, when non-nil, persists job records across restarts.
	// Journal writes are best-effort: a failed Put degrades durability
	// (counted, surfaced in stats) but never fails the job itself.
	journal        *jobstore.Store
	journalErrs    atomic.Uint64
	lastJournalErr atomic.Pointer[string]
}

func newJobEngine(session *query.Session, maxJobs, concurrent int, journal *jobstore.Store) *jobEngine {
	// Config defaults are applied in server.New; these floors only guard
	// direct construction in tests.
	if maxJobs <= 0 {
		maxJobs = 1
	}
	if concurrent <= 0 {
		concurrent = 1
	}
	return &jobEngine{
		session: session,
		jobs:    make(map[string]*jobRecord),
		maxJobs: maxJobs,
		sem:     make(chan struct{}, concurrent),
		journal: journal,
	}
}

// errJobsFull rejects submissions while the open-job bound is reached.
// The server maps it to 503 with a Retry-After header and a retryable
// error envelope: the condition clears as soon as a running job finishes.
var errJobsFull = fmt.Errorf("job queue full, retry later")

// submit queues a job over a plan and starts it as soon as a pool slot
// frees up. Open (queued or running) jobs are bounded by the same maxJobs
// knob as the retained history, so a submit flood is refused instead of
// growing records and goroutines without limit.
func (e *jobEngine) submit(ctx context.Context, p query.Plan) (JobJSON, error) {
	j := &jobRecord{ctx: ctx, plan: p, total: p.ExpandCount()}
	e.mu.Lock()
	open := 0
	for _, rec := range e.jobs {
		if rec.state == JobQueued || rec.state == JobRunning {
			open++
		}
	}
	if open >= e.maxJobs {
		e.mu.Unlock()
		return JobJSON{}, errJobsFull
	}
	e.nextID++
	j.id = fmt.Sprintf("job-%d", e.nextID)
	j.state = JobQueued
	j.created = time.Now()
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	evicted := e.evictLocked()
	snap := j.snapshotLocked()
	e.mu.Unlock()

	e.forgetJournal(evicted)
	e.journalPut(j)
	e.wg.Add(1)
	go e.run(j)
	return snap, nil
}

// adopt restores the journal into the engine: terminal records come back
// as served history, open (queued/running) records are re-enqueued and
// resumed from their checkpointed result prefix. It must run before the
// server accepts requests; the ID counter continues above every adopted
// ID so restarts never recycle a job identity. Corrupt journal files were
// already quarantined by LoadAll; records that fail semantic decode here
// (e.g. an unknown kind, such as the retired "experiments" kind) are
// dropped from the journal and counted as journal errors.
func (e *jobEngine) adopt() (resumed int, err error) {
	if e.journal == nil {
		return 0, nil
	}
	recs, err := e.journal.LoadAll()
	if err != nil {
		return 0, err
	}
	// The journal loads in file-name order; creation order is numeric
	// ("job-10" sorts before "job-2" lexically, but was created after it).
	sort.SliceStable(recs, func(i, j int) bool { return jobSeq(recs[i].ID) < jobSeq(recs[j].ID) })
	var drop []string
	for _, rec := range recs {
		j, ok := e.restore(rec)
		if !ok {
			drop = append(drop, rec.ID)
			continue
		}
		e.mu.Lock()
		if n := jobSeq(rec.ID); n > e.nextID {
			e.nextID = n
		}
		e.jobs[j.id] = j
		e.order = append(e.order, j.id)
		open := j.state == JobQueued || j.state == JobRunning
		if open {
			// The previous process died between journaling "running" and
			// journaling a terminal state; the job restarts from its
			// checkpointed prefix.
			j.state = JobQueued
			j.started = time.Time{}
		}
		e.mu.Unlock()
		if open {
			resumed++
			e.journalPut(j)
			e.wg.Add(1)
			go e.run(j)
		}
	}
	e.forgetJournal(drop)
	return resumed, nil
}

// restore rebuilds one in-memory record from its journaled form. The
// journaled spec is canonical, so planning it again reproduces the
// journaled fingerprint.
func (e *jobEngine) restore(rec jobstore.Record) (*jobRecord, bool) {
	j := &jobRecord{
		id:       rec.ID,
		state:    rec.State,
		err:      rec.Error,
		ctx:      context.Background(), //yield:allow(ctxflow) an adopted job has no submitting request to inherit from, and run detaches every job's context anyway
		total:    rec.Total,
		created:  rec.Created,
		started:  rec.Started,
		finished: rec.Finished,
	}
	switch rec.State {
	case JobQueued, JobRunning, JobDone, JobFailed:
	default:
		e.noteJournalErr(fmt.Errorf("job %s: unknown state %q", rec.ID, rec.State))
		return nil, false
	}
	if rec.Kind != JobKindQuery {
		e.noteJournalErr(fmt.Errorf("job %s: unknown kind %q", rec.ID, rec.Kind))
		return nil, false
	}
	var spec query.Spec
	err := json.Unmarshal(rec.Spec, &spec)
	if err == nil {
		j.plan, err = spec.Plan()
	}
	if err != nil {
		e.noteJournalErr(fmt.Errorf("job %s: spec: %w", rec.ID, err))
		return nil, false
	}
	if j.total == 0 {
		j.total = j.plan.ExpandCount()
	}
	if len(rec.Results) > 0 {
		if err := json.Unmarshal(rec.Results, &j.results); err != nil {
			e.noteJournalErr(fmt.Errorf("job %s: results: %w", rec.ID, err))
			return nil, false
		}
	}
	// The decoded prefix is the truth about progress, not the journaled
	// counter (a crash can land between the two).
	j.done = len(j.results)
	return j, true
}

// jobSeq extracts the numeric suffix of a "job-N" ID (0 when malformed).
func jobSeq(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

func (e *jobEngine) run(j *jobRecord) {
	defer e.wg.Done()
	e.sem <- struct{}{}
	defer func() { <-e.sem }()

	e.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	e.mu.Unlock()
	e.journalPut(j)

	// The job outlives its submitting request by design: keep the request's
	// values but drop its cancellation (the client already got 202 and polls
	// by job ID) and its tracer (the request span tree is finished by now;
	// attributing sweep spans to it would race with the response path).
	jobCtx := obs.Detach(context.WithoutCancel(j.ctx)) //yield:allow(ctxflow) async job engine: detachment from the request lifecycle is the documented contract

	err := e.execute(jobCtx, j)

	e.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
	} else {
		j.state = JobDone
	}
	e.mu.Unlock()
	e.journalPut(j)
}

// execute runs one job's work and converts panics — genuine bugs or an
// armed job.run failpoint — into a failed job, so a single bad job can
// never take down the server or wedge the engine. The one exception is an
// armed job.result panic, which execute re-raises past its recover: that
// site stands in for power loss mid-sweep and must end the process.
func (e *jobEngine) execute(ctx context.Context, j *jobRecord) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pv, ok := r.(fault.PanicValue); ok && pv.Site == fault.SiteJobResult {
				panic(r)
			}
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	if err := fault.InjectContext(ctx, fault.SiteJobRun); err != nil {
		return err
	}
	// An adopted job resumes after its journaled prefix. A prefix longer
	// than the expansion means the spec and results disagree; distrust the
	// prefix entirely and run the job from the start.
	e.mu.Lock()
	plan, err := j.plan.Resume(len(j.results))
	if err != nil {
		plan, j.results, j.done = j.plan, nil, 0
	}
	e.mu.Unlock()
	// Sweeps checkpoint partial results as the completed prefix grows, so a
	// polling client watches the sweep fill in. The journal write is
	// throttled to a stride: re-marshaling the growing prefix on every
	// result would cost O(n²) over a large sweep. The last result gets no
	// checkpoint: run journals the terminal record, carrying the same full
	// prefix, as soon as this returns.
	_, err = e.session.Run(ctx, plan,
		func(done, total int, r query.Result) {
			e.mu.Lock()
			j.results = append(j.results, r)
			j.done, j.total = done, total
			e.mu.Unlock()
			if e.journal != nil && done%journalStride(total) == 0 && done < total {
				e.journalPut(j)
			}
			// The job.result site fires on this goroutine (Run's caller is
			// its collector), and execute re-raises its panic: an armed
			// panic action dies with the whole process, mid-sweep — the
			// chaos harness's stand-in for power loss, leaving the
			// journaled prefix as the only survivor. Error actions have
			// nothing left to fail here (the result is already recorded)
			// and are ignored.
			_ = fault.Inject(fault.SiteJobResult)
		})
	return err
}

// journalStride spaces progress checkpoints so a sweep journals ~64 times
// regardless of size (the terminal record carries the final result).
func journalStride(total int) int {
	if s := total / 64; s > 1 {
		return s
	}
	return 1
}

// journalPut persists j's current state. Failures degrade durability, not
// availability: they are counted and surfaced, and the job runs on.
func (e *jobEngine) journalPut(j *jobRecord) {
	if e.journal == nil {
		return
	}
	e.mu.Lock()
	rec, err := j.journalRecordLocked()
	e.mu.Unlock()
	if err == nil {
		err = e.journal.Put(rec)
	}
	if err != nil {
		e.noteJournalErr(err)
	}
}

func (e *jobEngine) noteJournalErr(err error) {
	e.journalErrs.Add(1)
	msg := err.Error()
	e.lastJournalErr.Store(&msg)
}

// journalStats reports the engine's view of journal health (zero values
// when no journal is attached).
func (e *jobEngine) journalStats() (errs uint64, last string) {
	if p := e.lastJournalErr.Load(); p != nil {
		last = *p
	}
	return e.journalErrs.Load(), last
}

// journalRecordLocked builds j's durable form; e.mu must be held.
func (j *jobRecord) journalRecordLocked() (jobstore.Record, error) {
	rec := jobstore.Record{
		ID:          j.id,
		Kind:        JobKindQuery,
		State:       j.state,
		Error:       j.err,
		Fingerprint: j.plan.Fingerprint(),
		Done:        j.done,
		Total:       j.total,
		Created:     j.created,
		Started:     j.started,
		Finished:    j.finished,
	}
	spec, err := json.Marshal(j.plan.Spec())
	if err != nil {
		return rec, fmt.Errorf("journal %s: spec: %w", j.id, err)
	}
	rec.Spec = spec
	if len(j.results) > 0 {
		results, err := json.Marshal(j.results)
		if err != nil {
			return rec, fmt.Errorf("journal %s: results: %w", j.id, err)
		}
		rec.Results = results
	}
	return rec, nil
}

// forgetJournal drops evicted jobs' records. Called without e.mu held:
// deletes are file I/O and must not extend the engine's critical section.
func (e *jobEngine) forgetJournal(ids []string) {
	if e.journal == nil {
		return
	}
	for _, id := range ids {
		if err := e.journal.Delete(id); err != nil {
			e.noteJournalErr(err)
		}
	}
}

// get returns a snapshot of the job.
func (e *jobEngine) get(id string) (JobJSON, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobJSON{}, false
	}
	return j.snapshotLocked(), true
}

// counts returns how many jobs sit in each state.
func (e *jobEngine) counts() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := map[string]int{JobQueued: 0, JobRunning: 0, JobDone: 0, JobFailed: 0}
	for _, j := range e.jobs {
		out[j.state]++
	}
	return out
}

// drain blocks until every submitted job has finished.
func (e *jobEngine) drain() { e.wg.Wait() }

// drainTimeout waits up to d for submitted jobs to finish, reporting
// whether the drain completed. Jobs still running at the deadline keep
// their journal records and resume on the next start.
func (e *jobEngine) drainTimeout(d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// evictLocked drops the oldest finished jobs beyond the retention bound and
// returns their IDs so the caller can forget their journal records after
// releasing e.mu. Queued and running jobs are never evicted: their records
// are the only handle a client has on in-flight work.
func (e *jobEngine) evictLocked() []string {
	excess := len(e.jobs) - e.maxJobs
	if excess <= 0 {
		return nil
	}
	var evicted []string
	kept := e.order[:0]
	for _, id := range e.order {
		j := e.jobs[id]
		if excess > 0 && (j.state == JobDone || j.state == JobFailed) {
			delete(e.jobs, id)
			evicted = append(evicted, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	e.order = kept
	return evicted
}

func (j *jobRecord) snapshotLocked() JobJSON {
	spec := j.plan.Spec()
	out := JobJSON{
		ID:           j.id,
		Kind:         JobKindQuery,
		State:        j.state,
		Error:        j.err,
		Query:        &spec,
		Fingerprint:  j.plan.Fingerprint(),
		QueryResults: append([]query.Result(nil), j.results...),
		Done:         j.done,
		Total:        j.total,
		CreatedAt:    j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		out.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		out.FinishedAt = &t
	}
	return out
}
