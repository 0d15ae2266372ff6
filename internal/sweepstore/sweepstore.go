// Package sweepstore persists swept renewal count tables on disk, so a
// restarted yield server — or a parallel process pointed at the same
// directory — warms its sweep cache from disk instead of recomputing the
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
// A record loads in one pass: decode streams the body from the record
// layer's checksumming reader through a bounded window straight into one
// []float64 backing the whole table, validating each mass as it lands, and
// reads on to EOF, where the reader reports the checksum. The default
// law's record on the default grid (8800 PMFs, ~8.1 MB) loads with one
// table allocation (BenchmarkWarmCache).
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
	"strings"
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
	err := s.files.Load(func(name string, body io.Reader, size int64) error {
		rec, err := decode(body, size)
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

// window bounds the buffer decode streams a record body through.
const window = 64 << 10

// maxSupport bounds one PMF's support, so a corrupted length prefix is
// refused before it is trusted.
const maxSupport = 1 << 24

// decode parses and validates one record body of size bytes in one pass
// over r, reading r to EOF (where the record layer verifies the checksum).
// Every PMF is a full-slice view backing[a:b:b] into one array sized from
// the body (each mass takes 8 of its bytes), so the table costs one
// allocation and no append through one PMF can reach its neighbour. The
// masses pass dist.NewPMF's checks in the same loop that decodes them:
// finite and non-negative (-0 included), total in (0, 1+1e-9], summed in
// index order. Every length the body declares is checked against the bytes
// it has left before anything is sized from it.
func decode(r io.Reader, size int64) (Record, error) {
	d := &stream{r: r, buf: make([]byte, min(window, size)), unread: size}
	fpLen, err := d.uvarint()
	if err != nil || fpLen > uint64(d.left()) {
		return Record{}, corrupt("fingerprint length", err)
	}
	fp, err := d.text(int(fpLen))
	if err != nil {
		return Record{}, err
	}
	if d.left() < 3*8+1 {
		return Record{}, errors.New("header truncated")
	}
	if err := d.fill(3*8 + 1); err != nil {
		return Record{}, err
	}
	head := d.buf[d.pos:]
	d.pos += 3*8 + 1
	snap := &renewal.Snapshot{}
	snap.Step = math.Float64frombits(binary.LittleEndian.Uint64(head[0:]))
	snap.MaxWidth = math.Float64frombits(binary.LittleEndian.Uint64(head[8:]))
	if eps := binary.LittleEndian.Uint64(head[16:]); eps != math.Float64bits(renewal.DefaultTailEps) {
		return Record{}, fmt.Errorf("tail eps %g, want %g", math.Float64frombits(eps), renewal.DefaultTailEps)
	}
	if head[24] != 0 {
		return Record{}, fmt.Errorf("initial condition %d, want 0 (equilibrium)", head[24])
	}
	n, err := d.uvarint()
	if err != nil {
		return Record{}, corrupt("table length", err)
	}
	if !(snap.Step > 0) || !(snap.MaxWidth > snap.Step) {
		return Record{}, fmt.Errorf("grid (%g, %g) invalid", snap.Step, snap.MaxWidth)
	}
	if full := uint64(math.Round(snap.MaxWidth / snap.Step)); n != full {
		return Record{}, fmt.Errorf("table holds %d PMFs, grid horizon is %d", n, full)
	}
	// A PMF takes at least 9 bytes: a length prefix and one mass.
	if n > uint64(d.left())/9 {
		return Record{}, fmt.Errorf("table of %d PMFs overruns the %d-byte body", n, size)
	}
	snap.PMFs = make([]dist.PMF, n)
	backing := make([]float64, d.left()/8)
	off := 0
	for i := range snap.PMFs {
		k, err := d.uvarint()
		switch {
		case err != nil:
			return Record{}, fmt.Errorf("PMF %d: %w", i+1, corrupt("length prefix", err))
		case k == 0 || k > maxSupport:
			return Record{}, fmt.Errorf("PMF %d: support %d out of range", i+1, k)
		case 8*k > uint64(d.left()):
			return Record{}, fmt.Errorf("PMF %d: payload truncated: need %d bytes, have %d", i+1, 8*k, d.left())
		}
		p := backing[off : off+int(k) : off+int(k)]
		off += int(k)
		if err := d.masses(p); err != nil {
			return Record{}, fmt.Errorf("PMF %d: %w", i+1, err)
		}
		snap.PMFs[i] = dist.PMF{P: p}
	}
	if err := d.finish(); err != nil {
		return Record{}, err
	}
	if _, err := dist.ParseFingerprint(fp); err != nil {
		return Record{}, err
	}
	return Record{Fingerprint: fp, Snapshot: snap}, nil
}

// corrupt names a length field that does not parse, or passes on the
// read error that cut it short.
func corrupt(field string, err error) error {
	if err != nil && err != errVarint {
		return err
	}
	return errors.New(field + " corrupt")
}

// errVarint reports a malformed uvarint.
var errVarint = errors.New("malformed uvarint")

// stream reads a record body of known length through a bounded window,
// buf[pos:end] holding the bytes read but not yet consumed.
type stream struct {
	r        io.Reader
	buf      []byte
	pos, end int
	// unread counts the body bytes not yet read from r.
	unread int64
	// eof records that r has returned io.EOF.
	eof bool
}

// left returns how many body bytes are not yet consumed.
func (d *stream) left() int64 { return int64(d.end-d.pos) + d.unread }

// fill makes at least want ≤ len(buf) unconsumed bytes available in
// buf[pos:end], moving the unconsumed tail to the front and reading once
// per pass. A body that ends before its length is io.ErrUnexpectedEOF.
func (d *stream) fill(want int) error {
	if d.end-d.pos >= want {
		return nil
	}
	d.end = copy(d.buf, d.buf[d.pos:d.end])
	d.pos = 0
	for d.end < want {
		if d.unread == 0 {
			return io.ErrUnexpectedEOF
		}
		room := d.buf[d.end:]
		if int64(len(room)) > d.unread {
			room = room[:d.unread]
		}
		n, err := d.r.Read(room)
		d.end += n
		d.unread -= int64(n)
		switch {
		case err == io.EOF && d.unread == 0:
			d.eof = true
		case err == io.EOF:
			return io.ErrUnexpectedEOF
		case err != nil:
			return err
		}
	}
	return nil
}

// uvarint consumes one uvarint.
func (d *stream) uvarint() (uint64, error) {
	if err := d.fill(int(min(binary.MaxVarintLen64, d.left()))); err != nil {
		return 0, err
	}
	v, used := binary.Uvarint(d.buf[d.pos:d.end])
	if used <= 0 {
		return 0, errVarint
	}
	d.pos += used
	return v, nil
}

// text consumes k ≤ left() bytes as a string.
func (d *stream) text(k int) (string, error) {
	var sb strings.Builder
	sb.Grow(k)
	for sb.Len() < k {
		if err := d.fill(1); err != nil {
			return "", err
		}
		m := min(k-sb.Len(), d.end-d.pos)
		sb.Write(d.buf[d.pos : d.pos+m])
		d.pos += m
	}
	return sb.String(), nil
}

// masses consumes len(p) ≤ left()/8 raw float64 masses into p, checking
// each as dist.NewPMF does and summing them in index order.
func (d *stream) masses(p []float64) error {
	total := 0.0
	for j := 0; j < len(p); {
		if err := d.fill(8); err != nil {
			return err
		}
		q := p[j:min(len(p), j+(d.end-d.pos)/8)]
		w := d.buf[d.pos : d.pos+8*len(q)]
		for t := range q {
			v := math.Float64frombits(binary.LittleEndian.Uint64(w[8*t:]))
			if !(v >= 0) || math.IsInf(v, 1) {
				return fmt.Errorf("mass %g at count %d invalid", v, j+t)
			}
			total += v
			q[t] = v
		}
		j += len(q)
		d.pos += len(w)
	}
	if !(total > 0) {
		return errors.New("carries no mass")
	}
	if total > 1+1e-9 {
		return fmt.Errorf("total mass %g exceeds 1", total)
	}
	return nil
}

// finish checks that the body is consumed and reads r on to EOF.
func (d *stream) finish() error {
	if rest := d.left(); rest != 0 {
		return fmt.Errorf("%d trailing bytes after last PMF", rest)
	}
	for !d.eof {
		n, err := d.r.Read(d.buf[:1])
		switch {
		case n > 0:
			return errors.New("trailing bytes after last PMF")
		case err == io.EOF:
			d.eof = true
		case err != nil:
			return err
		}
	}
	return nil
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
