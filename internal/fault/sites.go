package fault

// The failpoint catalog: every injection site compiled into the tree, so
// chaos configurations can be written against stable names. DESIGN.md §10
// documents what each site interrupts and which recovery behavior it
// exercises.
const (
	// SiteStoreSave fires before every attempt to write a sweepstore
	// record: an error action simulates a disk-write failure (exercising
	// recfile's retry loop and Session.LastPersistError).
	SiteStoreSave = "store.save"
	// SiteStoreLoad fires before every sweepstore record file is read: an
	// error action simulates unreadable files at warm start (the record is
	// skipped, not quarantined — quarantine is reserved for integrity
	// failures).
	SiteStoreLoad = "store.load"
	// SiteJournalPut fires before every attempt to write a jobstore
	// record: an error action simulates a job-journal write failure
	// (retried with backoff; once the attempts are spent the job still
	// runs and the journal degrades, counted in /v1/stats).
	SiteJournalPut = "journal.put"
	// SiteJournalLoad fires before every jobstore record file is read at
	// adoption: an error action skips the record without quarantining it.
	SiteJournalLoad = "journal.load"
	// SiteJobRun fires at the start of every job execution: delay
	// simulates slow jobs, error fails them, panic simulates a job crash
	// (recovered by the engine into a failed state — the process stays up).
	SiteJobRun = "job.run"
	// SiteJobResult fires after each checkpointed query-job result: panic
	// here crashes a job mid-sweep with a partial-result prefix already
	// journaled, the exact state a SIGKILL leaves behind.
	SiteJobResult = "job.result"
	// SiteQueryEvaluate fires at the top of Session.Evaluate: delay makes
	// sweeps slow (exercising request deadlines and load shedding), error
	// fails evaluations with a non-request error (exercising the 500
	// envelope path).
	SiteQueryEvaluate = "query.evaluate"
	// SiteHTTPRequest fires in the HTTP observability middleware before
	// the handler runs: error rejects the request at the edge with a 503
	// envelope, delay holds the request open (exercising client timeouts
	// and WriteTimeout).
	SiteHTTPRequest = "http.request"
)
