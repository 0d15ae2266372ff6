// Package jobstore persists the yield server's async-job records so jobs
// survive a process death: each job's spec, fingerprint, state transitions
// and checkpointed partial results live in one file per job, written with
// the same durability idiom as the sweep store — a versioned binary
// envelope (magic + format version, CRC-32 integrity trailer) around a
// canonical JSON body, replaced atomically by rename so a crash mid-write
// can never corrupt an existing record.
//
// A restarted server re-adopts the journal: terminal records (done/failed)
// come back as served history, open records (queued/running) are
// re-executed — resumed from their checkpointed result prefix, which is
// sound because every query result is a pure function of its canonical
// spec. Corrupt record files are quarantined by renaming to .bad, so one
// torn write costs one job, not the journal.
package jobstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cnfet/yieldlab/internal/fault"
)

// magic identifies a job-record file; the trailing byte is the format
// version. Decoders reject any other version outright.
var magic = [8]byte{'C', 'N', 'F', 'J', 'O', 'B', 0, 1}

const (
	// fileExt names record files; LoadAll only considers this extension.
	fileExt = ".job"
	// badExt suffixes quarantined files; ".job.bad" no longer matches
	// fileExt, so a quarantined record is never re-read.
	badExt = ".bad"
	// maxFileSize bounds how much LoadAll reads per record.
	maxFileSize = 1 << 30
)

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
	if dir == "" {
		return nil, errors.New("jobstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Store is a directory of job records. All methods are safe for concurrent
// use; per-record writes serialize on one mutex (records are small, and
// one writer per job is the common case anyway).
type Store struct {
	dir string

	mu          sync.Mutex // serializes writers
	puts        atomic.Uint64
	loads       atomic.Uint64
	quarantined atomic.Uint64
	putErrs     atomic.Uint64
}

// Dir returns the journal's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats reports the journal's lifetime traffic.
type Stats struct {
	// Puts counts records written, Loads records decoded successfully,
	// Quarantined corrupt files renamed aside, PutErrors failed writes
	// (the job still ran; only durability degraded).
	Puts, Loads, Quarantined, PutErrors uint64
}

// Stats returns the journal's traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:        s.puts.Load(),
		Loads:       s.loads.Load(),
		Quarantined: s.quarantined.Load(),
		PutErrors:   s.putErrs.Load(),
	}
}

// Put journals one record, atomically replacing the previous version of
// the same job. The write is all-or-nothing: a crash between temp write
// and rename leaves the old record intact.
func (s *Store) Put(rec Record) error {
	if rec.ID == "" {
		return errors.New("jobstore: record without ID")
	}
	if strings.ContainsAny(rec.ID, "/\\") {
		return fmt.Errorf("jobstore: ID %q is not filesystem-safe", rec.ID)
	}
	if err := s.put(rec); err != nil {
		s.putErrs.Add(1)
		return err
	}
	s.puts.Add(1)
	return nil
}

func (s *Store) put(rec Record) error {
	if err := fault.Inject(fault.SiteJournalPut); err != nil {
		return err
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	out := make([]byte, 0, len(magic)+len(body)+4)
	out = append(out, magic[:]...)
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))

	// The temp file needs no lock: CreateTemp names are unique per call.
	tmp, err := os.CreateTemp(s.dir, "tmp-*"+fileExt+".partial")
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobstore: %w", err)
	}
	path := filepath.Join(s.dir, rec.ID+fileExt)
	s.mu.Lock()
	err = os.Rename(tmp.Name(), path) //yield:allow(atomicsafe) mu exists to order this publish against Delete for the same ID; the critical section is this one file op
	s.mu.Unlock()
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// Delete removes one job's record (eviction of finished history). A
// missing file is not an error.
func (s *Store) Delete(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") {
		return fmt.Errorf("jobstore: bad ID %q", id)
	}
	s.mu.Lock()
	err := os.Remove(filepath.Join(s.dir, id+fileExt)) //yield:allow(atomicsafe) paired with put's rename: removal and publish of one ID must serialize
	s.mu.Unlock()
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// LoadAll decodes every intact record, sorted by ID for deterministic
// adoption order. Files failing the integrity checks are quarantined by
// renaming to .bad (counted in Stats().Quarantined): a torn record must
// not block a server start, and leaving it in place would re-reject it on
// every restart forever. Transient read failures skip the file without
// quarantining it. Only directory-level I/O failures return an error.
func (s *Store) LoadAll() ([]Record, error) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	var out []Record
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), fileExt) {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		rec, err := s.loadFile(path)
		if err != nil {
			if isIntegrityError(err) {
				s.quarantine(path)
			}
			continue
		}
		s.loads.Add(1)
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// integrityError marks a decode failure (vs a transient read failure):
// only integrity failures quarantine the file.
type integrityError struct{ err error }

func (e integrityError) Error() string { return e.err.Error() }
func (e integrityError) Unwrap() error { return e.err }

func isIntegrityError(err error) bool {
	var ie integrityError
	return errors.As(err, &ie)
}

// quarantine renames a corrupt record aside so it is never re-read.
func (s *Store) quarantine(path string) {
	if os.Rename(path, path+badExt) == nil {
		s.quarantined.Add(1)
	}
}

// loadFile reads and verifies one record file.
func (s *Store) loadFile(path string) (Record, error) {
	if err := fault.Inject(fault.SiteStoreLoad); err != nil {
		return Record{}, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return Record{}, err
	}
	if fi.Size() > maxFileSize {
		return Record{}, integrityError{fmt.Errorf("jobstore: %s exceeds size bound", path)}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	rec, err := decode(data)
	if err != nil {
		return Record{}, integrityError{fmt.Errorf("jobstore: %s: %w", path, err)}
	}
	return rec, nil
}

// decode parses and verifies one encoded record:
//
//	magic+version (8) | JSON body | crc32(body) (4, little-endian)
func decode(data []byte) (Record, error) {
	if len(data) < len(magic)+4 {
		return Record{}, errors.New("truncated record")
	}
	if [8]byte(data[:8]) != magic {
		return Record{}, errors.New("bad magic or unsupported version")
	}
	body := data[8 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return Record{}, errors.New("checksum mismatch")
	}
	var rec Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return Record{}, err
	}
	if rec.ID == "" {
		return Record{}, errors.New("record without ID")
	}
	return rec, nil
}
