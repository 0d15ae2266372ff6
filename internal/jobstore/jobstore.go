// Package jobstore persists the yield server's async-job records so jobs
// survive a process death: each job's spec, fingerprint, state transitions
// and checkpointed partial results live in one file per job: a canonical
// JSON body in the recfile envelope the sweep store also uses (magic +
// format version, CRC-32 integrity trailer), replaced atomically by rename
// so a crash mid-write can never corrupt an existing record.
//
// A restarted server re-adopts the journal: terminal records (done/failed)
// come back as served history, open records (queued/running) are
// re-executed — resumed from their checkpointed result prefix, which is
// sound because every query result is a pure function of its canonical
// spec and the numerics epoch the record carries (an open record from
// another epoch reruns from zero). Corrupt record files are quarantined by renaming to .bad, so one
// torn write costs one job, not the journal.
package jobstore

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/recfile"
)

// kind is the job-record type; the magic's trailing byte is the format
// version.
var kind = recfile.Kind{
	Name:     "jobstore",
	Magic:    [8]byte{'C', 'N', 'F', 'J', 'O', 'B', 0, 1},
	Ext:      ".job",
	SaveSite: fault.SiteJournalPut,
	LoadSite: fault.SiteJournalLoad,
}

// Record is the durable form of one job. States and kinds mirror the
// server's job engine; Spec and Results carry opaque JSON owned by the
// engine so the journal does not import the query layer.
type Record struct {
	// ID is the job's stable identity ("job-17"); it names the file.
	ID string `json:"id"`
	// Kind is the job kind; the engine adopts only the kinds it writes.
	Kind string `json:"kind"`
	// State is the last journaled lifecycle state
	// (queued/running/done/failed).
	State string `json:"state"`
	// Error carries a failed job's message.
	Error string `json:"error,omitempty"`
	// Spec is the job's canonical spec (JSON), Fingerprint its stable qs1-
	// identity.
	Spec        json.RawMessage `json:"spec,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	// Results holds the checkpointed result prefix (a JSON array in
	// expansion order).
	Results json.RawMessage `json:"results,omitempty"`
	// Epoch is the numerics epoch (query.NumericsEpoch) Results was
	// computed under; records written before epochs existed read 0.
	Epoch int `json:"epoch,omitempty"`
	// Done and Total report sweep progress at the last checkpoint.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Lifecycle timestamps (zero when the transition has not happened).
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// Open returns a journal rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	files, err := recfile.Open(dir, kind)
	if err != nil {
		return nil, err
	}
	return &Store{files: files}, nil
}

// Store is a directory of job records. All methods are safe for concurrent
// use.
type Store struct{ files *recfile.Store }

// Dir returns the journal's root directory.
func (s *Store) Dir() string { return s.files.Dir() }

// Stats is the journal's recfile.Stats, with saves named puts.
type Stats struct {
	// PutErrors counts puts that failed once the retries were spent (the
	// job still ran; only durability degraded).
	Puts, Loads, Rejects, Quarantined, Retries, PutErrors uint64
}

// Stats returns the journal's traffic counters.
func (s *Store) Stats() Stats {
	st := s.files.Stats()
	return Stats{Puts: st.Saves, Loads: st.Loads, Rejects: st.Rejects,
		Quarantined: st.Quarantined, Retries: st.Retries, PutErrors: st.SaveErrors}
}

// Put journals one record, atomically replacing the previous version of
// the same job; a crash between temp write and rename leaves the old
// record intact. A transient write failure is retried after a backoff.
// The engine issues one job's puts in sequence (submit's put returns
// before the job goroutine starts, and checkpoints run on that
// goroutine), so a retry can never reorder one job's records.
func (s *Store) Put(rec Record) error {
	if err := checkID(rec.ID); err != nil {
		return err
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return s.files.Save(rec.ID, body)
}

// Delete removes one job's record (eviction of finished history). A
// missing file is not an error.
func (s *Store) Delete(id string) error {
	if err := checkID(id); err != nil {
		return err
	}
	return s.files.Remove(id)
}

// checkID refuses an ID that cannot name a file in the journal directory.
func checkID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") {
		return fmt.Errorf("jobstore: bad ID %q", id)
	}
	return nil
}

// LoadAll decodes every intact record in ID (file name) order. A file
// failing the integrity checks is quarantined to .bad (see
// recfile.Store.Load): a torn record must not block a server start, and
// leaving it in place would re-reject it on every restart forever. Only
// directory-level I/O failures return an error.
func (s *Store) LoadAll() ([]Record, error) {
	var out []Record
	err := s.files.Load(func(_ string, r io.Reader, _ int64) error {
		body, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		var rec Record
		if err := json.Unmarshal(body, &rec); err != nil {
			return err
		}
		if err := checkID(rec.ID); err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	return out, err
}
