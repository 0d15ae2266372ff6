// Package recfile is the durable record layer under the sweep store and the
// job journal. A store is a directory holding one file per record, each
// file a versioned envelope
//
//	magic+version (8) | body | crc32(body) (4, little-endian)
//
// written to a temp file and published by atomic rename, so a reader — in
// this process or another sharing the directory — sees the previous record
// or the new one, never a torn write. Transient write failures are retried
// under one fixed policy. At load time a file that fails its integrity
// checks is quarantined to .bad, so it costs one reject instead of one per
// restart, and stays on disk for post-mortem. The stores built on it own
// only their body codecs and their policies.
package recfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// order, and hands each verified body to decode together with the file's
// name less Ext. A bad magic, a bad CRC, a truncated or oversized file, or
// a decode error is an integrity failure: the file is quarantined to .bad
// and counted as a reject. A transient read failure (or an injected
// LoadSite fault) is a reject that leaves the file in place. Only a
// directory-level I/O failure returns an error.
func (s *Store) Load(decode func(name string, body []byte) error) error {
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
		body, err := s.read(path)
		if err == nil {
			if err = decode(name, body); err != nil {
				err = integrityError{err}
			}
		}
		if err != nil {
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

// read reads one record file and returns its verified body.
func (s *Store) read(path string) ([]byte, error) {
	if err := fault.Inject(s.kind.LoadSite); err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxFileSize {
		return nil, integrityError{errors.New("exceeds size bound")}
	}
	data, err := os.ReadFile(path)
	switch {
	case err != nil:
		return nil, err
	case len(data) < len(s.kind.Magic)+4:
		return nil, integrityError{errors.New("truncated record")}
	case [8]byte(data[:8]) != s.kind.Magic:
		return nil, integrityError{errors.New("bad magic or unsupported version")}
	}
	body := data[8 : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, integrityError{errors.New("checksum mismatch")}
	}
	return body, nil
}
