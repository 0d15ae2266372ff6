// Package recfile is the durable record layer under the sweep store and the
// job journal. A store is a directory holding one file per record, each
// file a versioned envelope
//
//	magic+version (8) | body | crc32(body) (4, little-endian)
//
// written to a temp file and published by atomic rename, so a reader — in
// this process or another sharing the directory — sees the previous record
// or the new one, never a torn write. Transient write failures are retried
// under one fixed policy. A load streams each body to its store's decoder
// in one pass, checksumming the bytes as they pass, and the reader reports
// the checksum's verdict at EOF, so no record is ever held whole. A file
// that fails its integrity checks is quarantined to .bad, so it costs one
// reject instead of one per restart, and stays on disk for post-mortem. The
// stores built on it own only their body codecs and their policies.
package recfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/rng"
)

const (
	// attempts and retryBase are the write retry policy: up to attempts
	// tries per record, sleeping retryBase<<(try-1) plus a deterministic
	// jitter in [0, retryBase/2] before each retry.
	attempts  = 3
	retryBase = 2 * time.Millisecond
	// badExt suffixes quarantined files, which no longer match any Ext.
	badExt = ".bad"
	// maxFileSize bounds how much a load reads per record, so a corrupted
	// or adversarial directory cannot drive unbounded allocation.
	maxFileSize = 1 << 30
)

// Kind fixes one store's record type. It is a constant of the store, not
// a user option.
type Kind struct {
	// Name prefixes the store's errors ("sweepstore").
	Name string
	// Magic opens every record; its last byte is the format version, and
	// a record of any other version is refused outright.
	Magic [8]byte
	// Ext names record files (".sweep"); loads consider no other file.
	Ext string
	// SaveSite and LoadSite are the failpoints fired before every write
	// attempt and every file read.
	SaveSite, LoadSite string
}

// Store is a directory of records of one Kind. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	kind Kind
	// mu orders publish (rename) against Remove of the same name.
	mu sync.Mutex

	saves, loads, rejects, quarantined, retries, saveErrs atomic.Uint64
	// jitter advances once per retry and seeds its SplitMix64 jitter:
	// deterministic per process history, no global randomness.
	jitter atomic.Uint64
}

// Stats reports a store's lifetime traffic.
type Stats struct {
	// Saves counts records written, Loads records decoded, Rejects files
	// refused at or after load (integrity failures, skipped reads, Reject),
	// Quarantined corrupt files renamed aside to .bad, Retries write
	// attempts repeated after a transient failure, SaveErrors writes that
	// failed once the attempts were spent.
	Saves, Loads, Rejects, Quarantined, Retries, SaveErrors uint64
}

// Open returns a store of the kind rooted at dir, creating the directory
// if needed.
func Open(dir string, kind Kind) (*Store, error) {
	if dir == "" {
		return nil, errors.New(kind.Name + ": empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", kind.Name, err)
	}
	return &Store{dir: dir, kind: kind}, nil
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
		SaveErrors:  s.saveErrs.Load(),
	}
}

// Reject counts a loaded record its store refused on its own checks.
func (s *Store) Reject() { s.rejects.Add(1) }

// Save seals body and publishes it as the record name+Ext, replacing any
// previous version. A failed attempt is retried under the fixed policy;
// the backoff sleep holds no lock. The last attempt's error surfaces.
func (s *Store) Save(name string, body []byte) error {
	data := make([]byte, 0, len(s.kind.Magic)+len(body)+4)
	data = append(data, s.kind.Magic[:]...)
	data = append(data, body...)
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(body))
	var err error
	for try := range attempts {
		if try > 0 {
			s.retries.Add(1)
			jitter := time.Duration(rng.SplitMix64(s.jitter.Add(1)) % uint64(retryBase/2+1))
			time.Sleep(retryBase<<(try-1) + jitter)
		}
		if err = s.write(filepath.Join(s.dir, name+s.kind.Ext), data); err == nil {
			s.saves.Add(1)
			return nil
		}
	}
	s.saveErrs.Add(1)
	return err
}

// write makes one temp-file + rename attempt. The temp file needs no
// lock: CreateTemp names are unique per call.
func (s *Store) write(path string, data []byte) error {
	if err := fault.Inject(s.kind.SaveSite); err != nil {
		return fmt.Errorf("%s: %w", s.kind.Name, err)
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-*"+s.kind.Ext+".partial")
	if err != nil {
		return fmt.Errorf("%s: %w", s.kind.Name, err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		s.mu.Lock()
		err = os.Rename(tmp.Name(), path) //yield:allow(atomicsafe) mu exists to order this publish against Remove of the same name; the critical section is this one file op
		s.mu.Unlock()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("%s: %w", s.kind.Name, err)
	}
	return nil
}

// Remove deletes the record name+Ext. A missing file is not an error.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	err := os.Remove(filepath.Join(s.dir, name+s.kind.Ext)) //yield:allow(atomicsafe) paired with write's rename: removal and publish of one name must serialize
	s.mu.Unlock()
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%s: %w", s.kind.Name, err)
	}
	return nil
}

// Load reads every record file in the directory, in os.ReadDir (name)
// order, and hands decode the file's name less Ext, a reader over exactly
// its body, and the body's length. The reader CRCs the bytes as they pass;
// once the last body byte is out it reads the trailer and returns io.EOF if
// the checksum matches, the integrity error if not. A decode that returns
// nil must have read to EOF: a body left unread, a decode error, a bad
// magic, a bad CRC, or a truncated or oversized file is an integrity
// failure, and Load quarantines the file to .bad and counts a reject. A
// transient read failure the reader saw (or an injected LoadSite fault) is
// a reject that leaves the file in place. Only a directory-level I/O
// failure returns an error.
func (s *Store) Load(decode func(name string, body io.Reader, size int64) error) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("%s: %w", s.kind.Name, err)
	}
	for _, de := range entries {
		name, ok := strings.CutSuffix(de.Name(), s.kind.Ext)
		if de.IsDir() || !ok {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		if err := s.load(path, name, decode); err != nil {
			s.rejects.Add(1)
			var ie integrityError
			if errors.As(err, &ie) && os.Rename(path, path+badExt) == nil {
				s.quarantined.Add(1)
			}
			continue
		}
		s.loads.Add(1)
	}
	return nil
}

// integrityError marks a record that can never load, as opposed to a
// transient read failure: only integrity failures quarantine the file.
type integrityError struct{ err error }

func (e integrityError) Error() string { return e.err.Error() }
func (e integrityError) Unwrap() error { return e.err }

// load opens one record file, checks its size and magic, and runs decode
// over its body. What the body reader saw outranks decode's verdict, so a
// decode error caused by a failed read keeps the read's class.
func (s *Store) load(path, name string, decode func(string, io.Reader, int64) error) error {
	if err := fault.Inject(s.kind.LoadSite); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	switch size := fi.Size(); {
	case size > maxFileSize:
		return integrityError{errors.New("exceeds size bound")}
	case size < int64(len(s.kind.Magic))+4:
		return integrityError{errors.New("truncated record")}
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return readError(err)
	}
	if magic != s.kind.Magic {
		return integrityError{errors.New("bad magic or unsupported version")}
	}
	b := &body{r: f, left: fi.Size() - int64(len(magic)) - 4}
	err = decode(name, b, b.left)
	switch {
	case b.err != nil && b.err != io.EOF:
		return b.err
	case err != nil:
		return integrityError{err}
	case b.err == nil:
		return integrityError{errors.New("body not read to its end")}
	}
	return nil
}

// body reads one record's body, CRCs it as it passes and verifies the
// trailer once the last byte is out. Its first error is sticky: io.EOF
// after a verified trailer, an integrityError, or the I/O error of a
// failed read.
type body struct {
	r    io.Reader // the file, positioned past the magic
	left int64     // body bytes not yet read
	crc  uint32
	err  error
}

func (b *body) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.left == 0 {
		b.err = b.verify()
		return 0, b.err
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.r.Read(p)
	b.crc = crc32.Update(b.crc, crc32.IEEETable, p[:n])
	b.left -= int64(n)
	switch {
	case err != nil:
		b.err = readError(err)
	case b.left == 0:
		b.err = b.verify()
	}
	return n, b.err
}

// verify reads the trailer and compares it with the body's CRC.
func (b *body) verify() error {
	var trailer [4]byte
	if _, err := io.ReadFull(b.r, trailer[:]); err != nil {
		return readError(err)
	}
	if b.crc != binary.LittleEndian.Uint32(trailer[:]) {
		return integrityError{errors.New("checksum mismatch")}
	}
	return io.EOF
}

// readError classifies a failed file read: running out of bytes the
// file's size promised is a truncated record, anything else transient.
func readError(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return integrityError{errors.New("truncated record")}
	}
	return err
}
