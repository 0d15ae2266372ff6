// Package sweepstore persists swept renewal count tables on disk, so a
// restarted yield server — or a parallel process pointed at the same
// directory — warms its sweep cache instantly instead of recomputing the
// arrival convolutions (hundreds of milliseconds per law+grid at the
// paper's default resolution).
//
// Each record pairs a spacing law's dist.Fingerprint with a renewal.Snapshot
// (grid configuration + the per-width count PMFs swept so far). Records are
// stored one per file under a content-derived name, in binary format
// version 2: fingerprint, grid (step, max width, tail epsilon, initial
// condition) and PMFs, with a CRC-32 integrity trailer (see encode).
// Corrupt, truncated or foreign-version files, version 1 included, are
// rejected at load time and never reach the cache. Fingerprints encode
// parameters by exact float64 bits, so a decoded record rebuilds the
// identical law and the restored tables are bit-exact — a warm start can
// never change a result.
package sweepstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/rng"
)

// magic identifies a sweep-table file; the trailing byte is the format
// version. Decoders reject any other version outright rather than guessing;
// version 1 carried a convolution-mode byte and may hold tables swept under
// a host-measured kernel crossover.
var magic = [8]byte{'C', 'N', 'F', 'S', 'W', 'P', 0, 2}

const (
	// fileExt names store files; LoadAll only considers this extension.
	fileExt = ".sweep"
	// badExt suffixes quarantined files; ".sweep.bad" no longer matches
	// fileExt, so a quarantined record is never re-read.
	badExt = ".bad"
	// maxFileSize bounds how much LoadAll will read per record, so a
	// corrupted or adversarial directory cannot drive unbounded allocation.
	maxFileSize = 1 << 30
)

// Store is a directory of persisted sweep tables. All methods are safe for
// concurrent use; cross-process coordination relies on atomic rename, so two
// processes sharing one directory see whole files or nothing.
type Store struct {
	dir string

	saveMu      sync.Mutex // serializes in-process writers per store
	saves       atomic.Uint64
	loads       atomic.Uint64
	rejects     atomic.Uint64
	quarantined atomic.Uint64
	retries     atomic.Uint64

	// retryAttempts/retryBase configure Save's transient-failure retry
	// loop (see SetRetry); jitterState seeds its deterministic jitter.
	retryAttempts int
	retryBase     time.Duration
	jitterState   atomic.Uint64
}

// Stats reports a store's lifetime traffic (for /v1/stats).
type Stats struct {
	// Saves counts records written, Loads records decoded successfully,
	// Rejects files refused for integrity or format reasons, Quarantined
	// corrupt files renamed aside to .bad, Retries save attempts repeated
	// after a transient write failure.
	Saves, Loads, Rejects, Quarantined, Retries uint64
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("sweepstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweepstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the store's traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Saves:       s.saves.Load(),
		Loads:       s.loads.Load(),
		Rejects:     s.rejects.Load(),
		Quarantined: s.quarantined.Load(),
		Retries:     s.retries.Load(),
	}
}

// SetRetry arms Save's transient-failure retry loop: up to attempts total
// tries per record, sleeping base<<try plus a small deterministic jitter
// between tries (no lock held while sleeping). Zero attempts (the default)
// means a single try — keeps unit tests and one-shot CLI runs snappy; the
// long-lived server opts in.
func (s *Store) SetRetry(attempts int, base time.Duration) {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	s.retryAttempts = attempts
	s.retryBase = base
}

// Record is one persisted sweep table: the law identity plus the swept
// snapshot.
type Record struct {
	Fingerprint string
	Snapshot    *renewal.Snapshot
}

// fileName derives the record's file name from its full cache identity
// (renewal.Snapshot.Key: fingerprint + grid), so distinct grids of one law
// coexist. FNV-64a over the key keeps names short and filesystem-safe
// regardless of what the fingerprint contains.
func fileName(fp string, snap *renewal.Snapshot) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, snap.Key(fp))
	return fmt.Sprintf("%016x%s", h.Sum64(), fileExt)
}

// Save writes one record, atomically replacing any previous version of the
// same law+grid. A record already on disk with an equal or wider sweep
// horizon is left alone, so concurrent writers can only widen what is
// stored. With SetRetry armed, transient write failures are retried with
// exponential backoff plus deterministic jitter; the lock is dropped while
// sleeping, so retries never stall other savers.
func (s *Store) Save(fingerprint string, snap *renewal.Snapshot) error {
	if fingerprint == "" {
		return errors.New("sweepstore: empty fingerprint")
	}
	if snap == nil || snap.SweptTo != len(snap.PMFs) {
		return errors.New("sweepstore: malformed snapshot")
	}
	if snap.SweptTo == 0 {
		return nil // nothing swept, nothing worth storing
	}
	s.saveMu.Lock()
	attempts, base := s.retryAttempts, s.retryBase
	s.saveMu.Unlock()
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			s.retries.Add(1)
			time.Sleep(backoff(base, try, s.jitterState.Add(1)))
		}
		if err = s.saveOnce(fingerprint, snap); err == nil {
			return nil
		}
	}
	return err
}

// backoff is base<<(try-1) plus a jitter in [0, base/2], derived from a
// SplitMix64 step of the store's advancing jitter stream — deterministic
// per process history, no global randomness.
func backoff(base time.Duration, try int, jitterStep uint64) time.Duration {
	d := base << (try - 1)
	return d + time.Duration(rng.SplitMix64(jitterStep)%uint64(base/2+1))
}

// saveOnce performs one locked read-compare-write attempt.
func (s *Store) saveOnce(fingerprint string, snap *renewal.Snapshot) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	// Serializing the whole read-compare-write against concurrent savers is
	// this lock's entire purpose: the widen-only guarantee needs the read
	// and the rename to be one atomic step, so the file I/O stays inside
	// the critical section by design.
	return s.saveLocked(fingerprint, snap) //yield:allow(atomicsafe) saveMu exists to serialize whole-file persists; the read-compare-rename must be atomic under it
}

// saveLocked performs the read-compare-write cycle; saveMu must be held.
func (s *Store) saveLocked(fingerprint string, snap *renewal.Snapshot) error {
	path := filepath.Join(s.dir, fileName(fingerprint, snap))
	if old, err := s.loadFile(path); err == nil && old.Snapshot.SweptTo >= snap.SweptTo {
		return nil
	}
	if err := fault.Inject(fault.SiteStoreSave); err != nil {
		return fmt.Errorf("sweepstore: %w", err)
	}
	data := encode(fingerprint, snap)
	tmp, err := os.CreateTemp(s.dir, "tmp-*"+fileExt+".partial")
	if err != nil {
		return fmt.Errorf("sweepstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweepstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweepstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweepstore: %w", err)
	}
	s.saves.Add(1)
	return nil
}

// LoadAll decodes every intact record in the store. Files that fail the
// integrity checks are quarantined — renamed to .bad and counted in
// Stats().Quarantined as well as Rejects — so one corrupted record costs
// that law a single cold sweep instead of a silent reject on every restart
// forever; the renamed file stays on disk for post-mortem. Transient read
// failures (and injected store.load faults) skip the file without
// quarantining it. Only directory-level I/O failures return an error.
func (s *Store) LoadAll() ([]Record, error) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("sweepstore: %w", err)
	}
	var out []Record
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), fileExt) || strings.HasSuffix(de.Name(), ".partial") {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		rec, err := s.loadFile(path)
		if err != nil {
			s.rejects.Add(1)
			if isIntegrityError(err) {
				s.quarantine(path)
			}
			continue
		}
		s.loads.Add(1)
		out = append(out, rec)
	}
	return out, nil
}

// integrityError marks a decode/format failure, as opposed to a transient
// read failure: only integrity failures quarantine the file.
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
		return Record{}, fmt.Errorf("sweepstore: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return Record{}, err
	}
	if fi.Size() > maxFileSize {
		return Record{}, integrityError{fmt.Errorf("sweepstore: %s exceeds size bound", path)}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	rec, err := decode(data)
	if err != nil {
		return Record{}, integrityError{fmt.Errorf("sweepstore: %s: %w", path, err)}
	}
	return rec, nil
}

// encode renders a record in the versioned binary layout:
//
//	magic+version (8) | body | crc32(body) (4, little-endian)
//
// body:
//
//	uvarint len(fingerprint) | fingerprint bytes
//	step, maxWidth, tailEps as raw float64 bits (8 each, little-endian)
//	ordinary (1)
//	uvarint sweptTo
//	sweptTo × PMF (uvarint support length + raw float64 bits per mass)
func encode(fingerprint string, snap *renewal.Snapshot) []byte {
	body := make([]byte, 0, 64+9*len(snap.PMFs))
	body = binary.AppendUvarint(body, uint64(len(fingerprint)))
	body = append(body, fingerprint...)
	for _, v := range []float64{snap.Step, snap.MaxWidth, snap.TailEps} {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
	}
	ord := byte(0)
	if snap.Ordinary {
		ord = 1
	}
	body = append(body, ord)
	body = binary.AppendUvarint(body, uint64(snap.SweptTo))
	for _, pmf := range snap.PMFs {
		body = pmf.AppendBinary(body)
	}
	out := make([]byte, 0, len(magic)+len(body)+4)
	out = append(out, magic[:]...)
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return out
}

// decode parses and verifies one encoded record.
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
	fpLen, used := binary.Uvarint(body)
	if used <= 0 || fpLen > uint64(len(body)-used) {
		return Record{}, errors.New("fingerprint length corrupt")
	}
	body = body[used:]
	fp := string(body[:fpLen])
	body = body[fpLen:]
	if len(body) < 3*8+1 {
		return Record{}, errors.New("header truncated")
	}
	snap := &renewal.Snapshot{}
	snap.Step = math.Float64frombits(binary.LittleEndian.Uint64(body[0:]))
	snap.MaxWidth = math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
	snap.TailEps = math.Float64frombits(binary.LittleEndian.Uint64(body[16:]))
	snap.Ordinary = body[24] == 1
	body = body[25:]
	sweptTo, used := binary.Uvarint(body)
	if used <= 0 {
		return Record{}, errors.New("sweep horizon corrupt")
	}
	body = body[used:]
	if !(snap.Step > 0) || !(snap.MaxWidth > snap.Step) {
		return Record{}, fmt.Errorf("grid (%g, %g) invalid", snap.Step, snap.MaxWidth)
	}
	if maxIdx := uint64(math.Round(snap.MaxWidth / snap.Step)); sweptTo == 0 || sweptTo > maxIdx {
		return Record{}, fmt.Errorf("sweep horizon %d out of range", sweptTo)
	}
	snap.SweptTo = int(sweptTo)
	snap.PMFs = make([]dist.PMF, snap.SweptTo)
	var err error
	for i := range snap.PMFs {
		snap.PMFs[i], body, err = dist.DecodePMF(body)
		if err != nil {
			return Record{}, fmt.Errorf("PMF %d: %w", i+1, err)
		}
	}
	if len(body) != 0 {
		return Record{}, fmt.Errorf("%d trailing bytes after last PMF", len(body))
	}
	if _, err := dist.ParseFingerprint(fp); err != nil {
		return Record{}, err
	}
	return Record{Fingerprint: fp, Snapshot: snap}, nil
}

// WarmCache loads every intact record into the sweep cache: the law is
// rebuilt from its fingerprint, registered under the exact same cache key a
// live query would use, and the swept tables are restored into it. Returns
// how many records were restored. Records whose law or tables fail
// validation are skipped, not fatal.
func WarmCache(s *Store, cache *renewal.SweepCache) (int, error) {
	recs, err := s.LoadAll()
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, rec := range recs {
		law, err := dist.ParseFingerprint(rec.Fingerprint)
		if err != nil {
			s.rejects.Add(1)
			continue
		}
		m, err := cache.Model(law, rec.Snapshot.Options()...)
		if err != nil {
			s.rejects.Add(1)
			continue
		}
		if err := m.Restore(rec.Snapshot); err != nil {
			s.rejects.Add(1)
			continue
		}
		restored++
	}
	return restored, nil
}

// PersistCache saves a snapshot of every fingerprinted model in the cache,
// returning how many records were written (models with nothing swept are
// skipped, as are records no wider than what is already stored). Call it at
// shutdown, or opportunistically after cache misses, to keep the on-disk
// tables at least as warm as the process.
func PersistCache(s *Store, cache *renewal.SweepCache) (int, error) {
	var firstErr error
	written := 0
	cache.ForEach(func(fp string, m *renewal.Model) {
		snap := m.Snapshot()
		if snap.SweptTo == 0 {
			return
		}
		before := s.saves.Load()
		if err := s.Save(fp, snap); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if s.saves.Load() > before {
			written++
		}
	})
	return written, firstErr
}
