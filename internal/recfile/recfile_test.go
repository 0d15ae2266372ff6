package recfile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"github.com/cnfet/yieldlab/internal/fault"
)

var testKind = Kind{
	Name:     "testrec",
	Magic:    [8]byte{'T', 'E', 'S', 'T', 'R', 'E', 'C', 1},
	Ext:      ".rec",
	SaveSite: "test.save",
	LoadSite: "test.load",
}

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), testKind)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// loadAll collects every body Load hands out, keyed by name, in order.
func loadAll(t *testing.T, s *Store) (names, bodies []string) {
	t.Helper()
	err := s.Load(func(name string, r io.Reader, _ int64) error {
		body, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		names = append(names, name)
		bodies = append(bodies, string(body))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names, bodies
}

// drain is a decoder that reads the body to its end and keeps nothing.
func drain(_ string, r io.Reader, _ int64) error {
	_, err := io.Copy(io.Discard, r)
	return err
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", testKind); err == nil || !strings.HasPrefix(err.Error(), "testrec:") {
		t.Fatalf("empty dir: err = %v", err)
	}
}

// Records round-trip in name order; a re-save replaces the record.
func TestSaveLoadRoundTrip(t *testing.T) {
	s := open(t)
	for _, rec := range [][2]string{{"b", "second"}, {"a", "first"}, {"b", "second, replaced"}} {
		if err := s.Save(rec[0], []byte(rec[1])); err != nil {
			t.Fatal(err)
		}
	}
	names, bodies := loadAll(t, s)
	if strings.Join(names, ",") != "a,b" || strings.Join(bodies, ",") != "first,second, replaced" {
		t.Fatalf("loaded %q %q", names, bodies)
	}
	data, err := os.ReadFile(filepath.Join(s.Dir(), "a.rec"))
	if err != nil {
		t.Fatal(err)
	}
	// magic | "first" | crc32("first"), little-endian.
	if want := "TESTREC\x01first\x57\xee\x71\x92"; string(data) != want {
		t.Fatalf("envelope = %q, want %q", data, want)
	}
	if st := s.Stats(); st != (Stats{Saves: 3, Loads: 2}) {
		t.Fatalf("stats = %+v", st)
	}
}

// Every envelope failure is an integrity error naming its cause, and Load
// quarantines the file so it is never re-read.
func TestEnvelopeIntegrity(t *testing.T) {
	s := open(t)
	if err := s.Save("ok", []byte("body")); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(s.Dir(), "ok.rec"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[9] ^= 0x40
	foreign := append([]byte("OTHERREC"), good[8:]...)
	cases := map[string]struct {
		data []byte
		want string
	}{
		"short":   {good[:11], "truncated"},
		"foreign": {foreign, "magic"},
		"flipped": {flipped, "checksum"},
	}
	for name, tc := range cases {
		path := filepath.Join(s.Dir(), name+".rec")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := s.load(path, name, drain)
		var ie integrityError
		if !errors.As(err, &ie) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want an integrity error about %q", name, err, tc.want)
		}
	}
	names, _ := loadAll(t, s)
	if len(names) != 1 || names[0] != "ok" {
		t.Fatalf("loaded %q, want only the intact record", names)
	}
	if st := s.Stats(); st.Rejects != 3 || st.Quarantined != 3 {
		t.Fatalf("stats = %+v, want 3 rejects, 3 quarantined", st)
	}
	for name := range cases {
		if _, err := os.Stat(filepath.Join(s.Dir(), name+".rec"+badExt)); err != nil {
			t.Fatalf("%s not quarantined: %v", name, err)
		}
	}
	if names, _ := loadAll(t, s); len(names) != 1 || s.Stats().Rejects != 3 {
		t.Fatalf("second load re-read quarantined files: %q, %+v", names, s.Stats())
	}
}

// A body the codec refuses is quarantined; a transient read failure is
// rejected but left in place, and loads once the fault passes.
func TestLoadFailureClasses(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	s := open(t)
	for _, name := range []string{"bad", "good"} {
		if err := s.Save(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fault.Enable(testKind.LoadSite, "error(io)@nth=2"); err != nil {
		t.Fatal(err)
	}
	refuse := func(name string, r io.Reader, _ int64) error {
		if name == "bad" {
			return errors.New("codec refused")
		}
		return drain(name, r, 0)
	}
	if err := s.Load(refuse); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loads != 0 || st.Rejects != 2 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 2 rejects, 1 quarantined", st)
	}
	if names, _ := loadAll(t, s); len(names) != 1 || names[0] != "good" {
		t.Fatalf("after the fault loaded %q, want good", names)
	}
}

// The streamed-load contract: the reader checksums what passes through it,
// however the decoder chunks its reads, and reports the verdict at EOF; a
// decoder that returns nil without having read to EOF fails the record,
// even if it read every body byte and ignored the checksum's verdict.
func TestStreamedLoadContract(t *testing.T) {
	s := open(t)
	for _, name := range []string{"empty", "chunked", "undrained", "ignored"} {
		body := []byte(strings.Repeat(name, 1000))
		if name == "empty" {
			body = nil
		}
		if err := s.Save(name, body); err != nil {
			t.Fatal(err)
		}
	}
	ignored := filepath.Join(s.Dir(), "ignored.rec")
	data, err := os.ReadFile(ignored)
	if err != nil {
		t.Fatal(err)
	}
	data[100] ^= 0x01
	if err := os.WriteFile(ignored, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var loaded []string
	err = s.Load(func(name string, r io.Reader, size int64) error {
		switch name {
		case "chunked":
			body, err := io.ReadAll(iotest.OneByteReader(r))
			if err != nil || string(body) != strings.Repeat(name, 1000) || int64(len(body)) != size {
				return fmt.Errorf("read %d of %d bytes: %v", len(body), size, err)
			}
		case "undrained":
			if _, err := io.ReadFull(r, make([]byte, 2)); err != nil {
				return err
			}
		case "ignored":
			// io.ReadFull drops the error that comes with the last bytes.
			if _, err := io.ReadFull(r, make([]byte, size)); err != nil {
				return err
			}
		default:
			if err := drain(name, r, size); err != nil {
				return err
			}
		}
		loaded = append(loaded, name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loads != 2 || st.Rejects != 2 || st.Quarantined != 2 {
		t.Fatalf("stats = %+v, want 2 loads, 2 rejects, 2 quarantined", st)
	}
	for _, name := range []string{"undrained", "ignored"} {
		if _, err := os.Stat(filepath.Join(s.Dir(), name+".rec"+badExt)); err != nil {
			t.Fatalf("%s not quarantined: %v", name, err)
		}
	}
	if got := strings.Join(loaded, ","); got != "chunked,empty,ignored,undrained" {
		t.Fatalf("decoder returned nil for %s", got)
	}
}

// The body reader passes a failed read on as a transient error and a body
// that ends early as an integrity error.
func TestBodyReadErrors(t *testing.T) {
	errIO := errors.New("input/output error")
	b := &body{r: iotest.ErrReader(errIO), left: 10}
	if _, err := io.ReadAll(b); err != errIO {
		t.Fatalf("failed read: err = %v, want the read's own error", err)
	}
	b = &body{r: strings.NewReader("short"), left: 10}
	_, err := io.ReadAll(b)
	var ie integrityError
	if !errors.As(err, &ie) || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("early end: err = %v, want a truncated-record integrity error", err)
	}
}

// Partial temp files and foreign extensions are never read.
func TestLoadSkipsOtherFiles(t *testing.T) {
	s := open(t)
	for _, name := range []string{"tmp-1.rec.partial", "x.rec.bad", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(s.Dir(), "dir.rec"), 0o755); err != nil {
		t.Fatal(err)
	}
	if names, _ := loadAll(t, s); len(names) != 0 || s.Stats() != (Stats{}) {
		t.Fatalf("loaded %q, stats %+v", names, s.Stats())
	}
}

// The fixed policy: a transient failure is retried after a backoff of at
// least retryBase, then 2·retryBase; a permanent one surfaces once the
// attempts are spent and leaves no temp file behind.
func TestSaveRetryPolicy(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	s := open(t)
	if err := fault.Enable(testKind.SaveSite, "error(disk)@times=2"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Save("a", []byte("x")); err != nil {
		t.Fatalf("retried save failed: %v", err)
	}
	if d := time.Since(start); d < 3*retryBase {
		t.Fatalf("two retries took %v, want at least %v of backoff", d, 3*retryBase)
	}
	if st := s.Stats(); st.Saves != 1 || st.Retries != 2 || st.SaveErrors != 0 {
		t.Fatalf("stats = %+v, want 1 save after 2 retries", st)
	}

	if err := fault.Enable(testKind.SaveSite, "error(dead disk)"); err != nil {
		t.Fatal(err)
	}
	err := s.Save("b", []byte("y"))
	if !errors.Is(err, fault.ErrInjected) || !strings.HasPrefix(err.Error(), "testrec:") {
		t.Fatalf("err = %v, want the injected error", err)
	}
	if st := s.Stats(); st.Saves != 1 || st.Retries != 4 || st.SaveErrors != 1 {
		t.Fatalf("stats = %+v, want 1 save error after 2 more retries", st)
	}
	if fs := fault.Stats(); len(fs) != 1 || fs[0].Calls != attempts {
		t.Fatalf("failpoint stats = %+v, want %d attempts", fs, attempts)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil || len(entries) != 1 || entries[0].Name() != "a.rec" {
		t.Fatalf("directory = %v, %v; want only a.rec", entries, err)
	}
}

func TestRemove(t *testing.T) {
	s := open(t)
	if err := s.Save("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for range 2 { // the second removal finds nothing, which is not an error
		if err := s.Remove("a"); err != nil {
			t.Fatal(err)
		}
	}
	if names, _ := loadAll(t, s); len(names) != 0 {
		t.Fatalf("loaded %q after Remove", names)
	}
}

// Concurrent saves and removes of one name leave the record whole or
// absent: never torn, never quarantined, and no temp file behind.
func TestConcurrentSaveRemove(t *testing.T) {
	s := open(t)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte(strings.Repeat(string(rune('a'+g)), 4096))
			for i := range 20 {
				if err := s.Save("x", body); err != nil {
					t.Error(err)
				}
				if i%3 == g%3 {
					if err := s.Remove("x"); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	names, bodies := loadAll(t, s)
	if len(names) > 1 || (len(names) == 1 && strings.Trim(bodies[0], bodies[0][:1]) != "") {
		t.Fatalf("loaded %q", names)
	}
	if st := s.Stats(); st.Saves != 80 || st.Quarantined != 0 || st.Rejects != 0 {
		t.Fatalf("stats = %+v", st)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil || len(entries) > 1 {
		t.Fatalf("directory = %v, %v", entries, err)
	}
}
