// Package sweepstore persists swept renewal count tables on disk, so a
// restarted yield server — or a parallel process pointed at the same
// directory — warms its sweep cache instantly instead of recomputing the
// arrival convolutions (hundreds of milliseconds per law+grid at the
// paper's default resolution).
//
// Each record pairs a spacing law's dist.Fingerprint with a renewal.Snapshot
// (grid configuration + the count PMF of every grid width). Records are
// stored one per file under a content-derived name, in binary format
// version 2: fingerprint, grid (step, max width), two fixed fields (the
// tail epsilon, always renewal.DefaultTailEps, and the initial-condition
// byte, always 0 for equilibrium) and PMFs (see encode), in a CRC-checked
// recfile envelope. Corrupt, truncated, partial-table or foreign-version
// files, version 1 included, and records whose fixed fields hold any other
// value are rejected at load time and never reach the cache.
// Fingerprints encode parameters by exact float64 bits, so a decoded record
// rebuilds the identical law and the restored tables are bit-exact — a warm
// start can never change a result.
//
// A record is a pure function of its law and grid, so a record on disk is
// never rewritten: a Store remembers every record it has loaded or written
// and PersistCache skips them without touching the disk.
package sweepstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"

	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/recfile"
	"github.com/cnfet/yieldlab/internal/renewal"
)

// kind is the sweep-table record type. The magic's trailing byte is the
// format version; version 1 carried a convolution-mode byte and may hold
// tables swept under a host-measured kernel crossover, so it is refused.
var kind = recfile.Kind{
	Name:     "sweepstore",
	Magic:    [8]byte{'C', 'N', 'F', 'S', 'W', 'P', 0, 2},
	Ext:      ".sweep",
	SaveSite: fault.SiteStoreSave,
	LoadSite: fault.SiteStoreLoad,
}

// Store is a directory of persisted sweep tables. All methods are safe for
// concurrent use; cross-process coordination relies on atomic rename, so two
// processes sharing one directory see whole files or nothing.
type Store struct {
	files *recfile.Store
	// persisted holds the name of every record this store has loaded or
	// written.
	persisted sync.Map
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	files, err := recfile.Open(dir, kind)
	if err != nil {
		return nil, err
	}
	return &Store{files: files}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.files.Dir() }

// Stats returns the store's traffic counters.
func (s *Store) Stats() recfile.Stats { return s.files.Stats() }

// Record is one persisted sweep table: the law identity plus the swept
// snapshot.
type Record struct {
	Fingerprint string
	Snapshot    *renewal.Snapshot
}

// fileName derives the record's file name (less extension) from its full
// cache identity (renewal.Snapshot.Key: fingerprint + grid), so distinct
// grids of one law coexist. FNV-64a over the key keeps names short and
// filesystem-safe regardless of what the fingerprint contains.
func fileName(fp string, snap *renewal.Snapshot) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, snap.Key(fp))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Save writes one whole-table record; recfile publishes it atomically and
// retries transient failures. It reads nothing: records of one law+grid
// are bit-identical, so whichever write lands last is as good as any.
func (s *Store) Save(fingerprint string, snap *renewal.Snapshot) error {
	if fingerprint == "" || snap == nil {
		return errors.New("sweepstore: empty fingerprint or nil snapshot")
	}
	if len(snap.PMFs) == 0 {
		return nil // nothing swept, nothing worth storing
	}
	if full := int(math.Round(snap.MaxWidth / snap.Step)); len(snap.PMFs) != full {
		return fmt.Errorf("sweepstore: snapshot holds %d PMFs, grid horizon is %d", len(snap.PMFs), full)
	}
	name := fileName(fingerprint, snap)
	if err := s.files.Save(name, encode(fingerprint, snap)); err != nil {
		return err
	}
	s.persisted.Store(name, true)
	return nil
}

// LoadAll decodes every intact record in the store. A file that fails the
// integrity checks is quarantined (see recfile.Store.Load), so one
// corrupted record costs that law a single cold sweep instead of a silent
// reject on every restart forever. Only directory-level I/O failures
// return an error.
func (s *Store) LoadAll() ([]Record, error) {
	var out []Record
	err := s.files.Load(func(name string, body []byte) error {
		rec, err := decode(body)
		if err != nil {
			return err
		}
		s.persisted.Store(name, true)
		out = append(out, rec)
		return nil
	})
	return out, err
}

// encode renders a record body (recfile adds the magic and the CRC):
//
//	uvarint len(fingerprint) | fingerprint bytes
//	step, maxWidth, renewal.DefaultTailEps as raw float64 bits (8 each,
//	little-endian)
//	initial condition (1): 0, equilibrium
//	uvarint n = round(maxWidth/step), the grid's full horizon
//	n × PMF (uvarint support length + raw float64 bits per mass)
func encode(fingerprint string, snap *renewal.Snapshot) []byte {
	body := make([]byte, 0, 64+9*len(snap.PMFs))
	body = binary.AppendUvarint(body, uint64(len(fingerprint)))
	body = append(body, fingerprint...)
	for _, v := range []float64{snap.Step, snap.MaxWidth, renewal.DefaultTailEps} {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
	}
	body = append(body, 0)
	body = binary.AppendUvarint(body, uint64(len(snap.PMFs)))
	for _, pmf := range snap.PMFs {
		body = pmf.AppendBinary(body)
	}
	return body
}

// decode parses and validates one record body.
func decode(body []byte) (Record, error) {
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
	if eps := binary.LittleEndian.Uint64(body[16:]); eps != math.Float64bits(renewal.DefaultTailEps) {
		return Record{}, fmt.Errorf("tail eps %g, want %g", math.Float64frombits(eps), renewal.DefaultTailEps)
	}
	if body[24] != 0 {
		return Record{}, fmt.Errorf("initial condition %d, want 0 (equilibrium)", body[24])
	}
	body = body[25:]
	n, used := binary.Uvarint(body)
	if used <= 0 {
		return Record{}, errors.New("table length corrupt")
	}
	body = body[used:]
	if !(snap.Step > 0) || !(snap.MaxWidth > snap.Step) {
		return Record{}, fmt.Errorf("grid (%g, %g) invalid", snap.Step, snap.MaxWidth)
	}
	if full := uint64(math.Round(snap.MaxWidth / snap.Step)); n != full {
		return Record{}, fmt.Errorf("table holds %d PMFs, grid horizon is %d", n, full)
	}
	snap.PMFs = make([]dist.PMF, n)
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
			s.files.Reject()
			continue
		}
		m, err := cache.Model(law, rec.Snapshot.Options()...)
		if err != nil {
			s.files.Reject()
			continue
		}
		if err := m.Restore(rec.Snapshot); err != nil {
			s.files.Reject()
			continue
		}
		restored++
	}
	return restored, nil
}

// PersistCache saves every fingerprinted model's table that this store has
// not already loaded or written, returning how many records were written
// (models with nothing swept are skipped). It reads no store file. Call it
// at shutdown, or opportunistically after cache misses, to keep the on-disk
// tables at least as warm as the process.
func PersistCache(s *Store, cache *renewal.SweepCache) (int, error) {
	var firstErr error
	written := 0
	cache.ForEach(func(fp string, m *renewal.Model) {
		// Snapshot shares the model's table, so taking one costs no copy.
		snap := m.Snapshot()
		if _, done := s.persisted.Load(fileName(fp, snap)); done || len(snap.PMFs) == 0 {
			return
		}
		if err := s.Save(fp, snap); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		written++
	})
	return written, firstErr
}
