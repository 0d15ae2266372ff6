package jobstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/cnfet/yieldlab/internal/fault"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestPutLoadRoundTrip(t *testing.T) {
	s := open(t)
	rec := Record{
		ID:          "job-2",
		Kind:        "query",
		State:       "running",
		Spec:        json.RawMessage(`{"kind":"pf","width_nm":155}`),
		Fingerprint: "qs1-abc",
		Results:     json.RawMessage(`[{"pf":1e-9}]`),
		Done:        1,
		Total:       4,
		Created:     time.Date(2026, 8, 8, 1, 2, 3, 0, time.UTC),
		Started:     time.Date(2026, 8, 8, 1, 2, 4, 0, time.UTC),
	}
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	// A second record, and an update of the first (atomic replace).
	if err := s.Put(Record{ID: "job-1", Kind: "query", State: "done",
		Spec: json.RawMessage(`{"kind":"wmin"}`), Created: rec.Created}); err != nil {
		t.Fatal(err)
	}
	rec.State = "done"
	rec.Done, rec.Results = 4, json.RawMessage(`[{"pf":1e-9},{},{},{}]`)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}

	got, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "job-1" || got[1].ID != "job-2" {
		t.Fatalf("LoadAll = %+v, want job-1, job-2 in ID order", got)
	}
	if got[1].State != "done" || got[1].Done != 4 || string(got[1].Results) != string(rec.Results) {
		t.Fatalf("updated record = %+v", got[1])
	}
	if !got[1].Started.Equal(rec.Started) || !got[1].Finished.IsZero() {
		t.Fatalf("timestamps = %+v", got[1])
	}
	if st := s.Stats(); st.Puts != 3 || st.Loads != 2 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutValidation(t *testing.T) {
	s := open(t)
	if err := s.Put(Record{}); err == nil {
		t.Fatal("record without ID accepted")
	}
	if err := s.Put(Record{ID: "../escape"}); err == nil {
		t.Fatal("path-traversing ID accepted")
	}
	if err := s.Delete("a/b"); err == nil {
		t.Fatal("path-traversing Delete accepted")
	}
}

func TestDelete(t *testing.T) {
	s := open(t)
	if err := s.Put(Record{ID: "job-1", State: "done", Created: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job-1"); err != nil {
		t.Fatalf("deleting a missing record: %v", err)
	}
	got, err := s.LoadAll()
	if err != nil || len(got) != 0 {
		t.Fatalf("LoadAll after delete = %v, %v", got, err)
	}
}

func TestCorruptRecordQuarantined(t *testing.T) {
	s := open(t)
	if err := s.Put(Record{ID: "job-1", State: "queued", Created: time.Now()}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored bytes (flip one body byte → CRC mismatch), and
	// drop in a truncated impostor.
	path := filepath.Join(s.Dir(), "job-1"+fileExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "job-2"+fileExt), []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("LoadAll decoded corrupt records: %+v", got)
	}
	if st := s.Stats(); st.Quarantined != 2 {
		t.Fatalf("quarantined = %d, want 2", st.Quarantined)
	}
	// Both files were renamed aside and are never re-read.
	for _, id := range []string{"job-1", "job-2"} {
		if _, err := os.Stat(filepath.Join(s.Dir(), id+fileExt)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s still in place: %v", id, err)
		}
		if _, err := os.Stat(filepath.Join(s.Dir(), id+fileExt+badExt)); err != nil {
			t.Fatalf("%s not quarantined: %v", id, err)
		}
	}
	if got, err := s.LoadAll(); err != nil || len(got) != 0 {
		t.Fatalf("second LoadAll = %v, %v", got, err)
	}
	if st := s.Stats(); st.Quarantined != 2 {
		t.Fatalf("quarantined grew on re-load: %+v", st)
	}
}

func TestInjectedPutFailureCounts(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	s := open(t)
	if err := fault.Enable(fault.SiteJournalPut, "error(journal disk)@nth=1"); err != nil {
		t.Fatal(err)
	}
	err := s.Put(Record{ID: "job-1", State: "queued", Created: time.Now()})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	// Second attempt (failpoint fired once) succeeds.
	if err := s.Put(Record{ID: "job-1", State: "queued", Created: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PutErrors != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInjectedLoadFailureSkipsWithoutQuarantine(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	s := open(t)
	if err := s.Put(Record{ID: "job-1", State: "done", Created: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable(fault.SiteStoreLoad, "error(read)@nth=1"); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadAll()
	if err != nil || len(got) != 0 {
		t.Fatalf("LoadAll under injected read error = %v, %v", got, err)
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Fatalf("transient read failure quarantined the record: %+v", st)
	}
	// The fault has passed; the intact record is still there.
	got, err = s.LoadAll()
	if err != nil || len(got) != 1 {
		t.Fatalf("LoadAll after fault = %v, %v", got, err)
	}
}

func TestPartialTempFilesIgnored(t *testing.T) {
	s := open(t)
	if err := os.WriteFile(filepath.Join(s.Dir(), "tmp-123"+fileExt+".partial"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadAll()
	if err != nil || len(got) != 0 {
		t.Fatalf("LoadAll = %v, %v", got, err)
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Fatalf("partial file quarantined: %+v", st)
	}
}

func TestDecodeRejectsForeignMagic(t *testing.T) {
	if _, err := decode([]byte("NOTMAGIC-body-crc32")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}
