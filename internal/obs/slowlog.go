package obs

import (
	"sync"
	"time"
)

// DefaultSlowLogThreshold is the recording cutoff when a SlowLog is built
// with threshold 0.
const DefaultSlowLogThreshold = 25 * time.Millisecond

// DefaultSlowLogEntries is the ring capacity when a SlowLog is built with
// capacity ≤ 0.
const DefaultSlowLogEntries = 64

// StageDur is one flattened span of a slow request: the stage name and its
// wall time.
type StageDur struct {
	// Name is the span name ("sweep.cold", "mc.run", ...).
	Name string `json:"name"`
	// MS is the stage duration in milliseconds.
	MS float64 `json:"ms"`
}

// Stages flattens a span tree into stage durations, depth-first in start
// order — the per-stage view the slowlog and the stage histograms share.
func Stages(root *Span) []StageDur {
	if root == nil {
		return nil
	}
	root.tracer.mu.Lock()
	defer root.tracer.mu.Unlock()
	return appendStages(nil, root)
}

// AppendStages flattens every root span's tree onto dst, roots in start
// order and each tree as Stages flattens it, and returns the grown slice
// with the value of the first root's string attribute named key ("" when
// no root carries one). A caller that keeps dst between requests flattens
// without allocating; the slowlog copies what it records. Nil-safe.
func (t *Tracer) AppendStages(dst []StageDur, key string) ([]StageDur, string) {
	if t == nil {
		return dst, ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	found := ""
	for r := t.first; r != nil; r = r.next {
		dst = appendStages(dst, r)
		if a := r.lookup(key); found == "" && a != nil && a.kind == kindString {
			found = a.str
		}
	}
	return dst, found
}

// appendStages appends s's subtree depth-first. Caller holds the tracer's
// mu.
func appendStages(dst []StageDur, s *Span) []StageDur {
	dst = append(dst, StageDur{Name: s.name, MS: float64(s.dur) / float64(time.Millisecond)})
	for c := s.firstChild; c != nil; c = c.next {
		dst = appendStages(dst, c)
	}
	return dst
}

// SlowEntry is one recorded slow request.
type SlowEntry struct {
	// Time is when the request completed.
	Time time.Time `json:"time"`
	// Route is the matched route pattern.
	Route string `json:"route,omitempty"`
	// RequestID is the request's correlation id (also in the structured log
	// and the X-Request-ID response header).
	RequestID string `json:"request_id,omitempty"`
	// Fingerprint is the canonical spec fingerprint, when the request
	// evaluated one.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Status is the HTTP status code.
	Status int `json:"status,omitempty"`
	// DurationMS is the total wall time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Stages attributes the wall time to evaluation stages, when the
	// request was traced.
	Stages []StageDur `json:"stages,omitempty"`
}

// SlowLog is a fixed-size ring of the most recent requests at or above a
// duration threshold. Recording is O(1) and bounded, so the slowlog can stay
// on for the server's whole lifetime; the ring holds the newest entries and
// forgets the oldest, which is the retention policy (DESIGN.md §9).
type SlowLog struct {
	threshold time.Duration

	mu       sync.Mutex
	ring     []SlowEntry
	next     int
	filled   bool
	observed uint64
	recorded uint64
}

// NewSlowLog builds a slowlog holding up to capacity entries at or above
// threshold. capacity ≤ 0 means DefaultSlowLogEntries; threshold 0 means
// DefaultSlowLogThreshold, and a negative threshold records every request
// (useful in tests and smoke checks).
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = DefaultSlowLogEntries
	}
	switch {
	case threshold == 0:
		threshold = DefaultSlowLogThreshold
	case threshold < 0:
		threshold = 0
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, capacity)}
}

// Threshold returns the recording cutoff (0 = record everything).
func (l *SlowLog) Threshold() time.Duration { return l.threshold }

// Capacity returns the ring size.
func (l *SlowLog) Capacity() int { return len(l.ring) }

// Observe records the entry when d reaches the threshold. e.DurationMS is
// filled from d. The slowlog copies e.Stages when it records the entry, so
// the caller may reuse that buffer as soon as Observe returns. Nil-safe.
func (l *SlowLog) Observe(d time.Duration, e SlowEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observed++
	if d < l.threshold {
		return
	}
	l.recorded++
	if len(e.Stages) > 0 {
		e.Stages = append([]StageDur(nil), e.Stages...)
	}
	e.DurationMS = float64(d) / float64(time.Millisecond)
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.filled = true
	}
}

// Entries returns the recorded entries, newest first. Nil-safe.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.filled {
		n = len(l.ring)
	}
	out := make([]SlowEntry, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// Counts returns how many requests were observed and how many cleared the
// threshold over the slowlog's lifetime (recorded ≥ len(Entries()) once the
// ring wraps). Nil-safe.
func (l *SlowLog) Counts() (observed, recorded uint64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.observed, l.recorded
}
