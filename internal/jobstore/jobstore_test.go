package jobstore

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/cnfet/yieldlab/internal/fault"
)

// fileExt and badExt are the record and quarantine file suffixes.
const fileExt, badExt = ".job", ".bad"

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
	// A transient failure is retried, and the put lands.
	if err := fault.Enable(fault.SiteJournalPut, "error(journal disk)@nth=1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{ID: "job-1", State: "queued", Created: time.Now()}); err != nil {
		t.Fatalf("retried put failed: %v", err)
	}
	if st := s.Stats(); st.PutErrors != 0 || st.Puts != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 put after 1 retry", st)
	}
	// A permanent failure surfaces once the attempts are spent.
	if err := fault.Enable(fault.SiteJournalPut, "error(journal disk)"); err != nil {
		t.Fatal(err)
	}
	err := s.Put(Record{ID: "job-1", State: "running", Created: time.Now()})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if st := s.Stats(); st.PutErrors != 1 || st.Puts != 1 || st.Retries != 3 {
		t.Fatalf("stats = %+v, want 1 put error after 2 more retries", st)
	}
}

func TestInjectedLoadFailureSkipsWithoutQuarantine(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	s := open(t)
	if err := s.Put(Record{ID: "job-1", State: "done", Created: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable(fault.SiteJournalLoad, "error(read)@nth=1"); err != nil {
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

// A file in another format's envelope is refused and quarantined.
func TestDecodeRejectsForeignMagic(t *testing.T) {
	s := open(t)
	if err := os.WriteFile(filepath.Join(s.Dir(), "job-1"+fileExt), []byte("NOTMAGIC-body-crc32"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadAll()
	if err != nil || len(got) != 0 {
		t.Fatalf("LoadAll = %v, %v", got, err)
	}
	if st := s.Stats(); st.Rejects != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 reject, 1 quarantined", st)
	}
}

// TestPutBytesPinned pins the exact bytes Put writes for one record with
// fixed timestamps, so a journal written by an earlier build of format
// version 1 keeps adopting in later builds. A change here is a format
// change: bump the magic's version byte instead of re-pinning.
func TestPutBytesPinned(t *testing.T) {
	s := open(t)
	rec := Record{
		ID:          "job-7",
		Kind:        "query",
		State:       "running",
		Spec:        json.RawMessage(`{"kind":"pf","width_nm":155}`),
		Fingerprint: "qs1-0123456789abcdef",
		Results:     json.RawMessage(`[{"pf":3.1e-9}]`),
		Done:        1,
		Total:       2,
		Created:     time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Started:     time.Date(2026, 1, 2, 3, 4, 6, 0, time.UTC),
	}
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(s.Dir(), "job-7.job"))
	if err != nil {
		t.Fatal(err)
	}
	const pinned = "434e464a4f4200017b226964223a226a6f622d37222c226b696e64223a22717565" +
		"7279222c227374617465223a2272756e6e696e67222c2273706563223a7b226b69" +
		"6e64223a227066222c2277696474685f6e6d223a3135357d2c2266696e67657270" +
		"72696e74223a227173312d30313233343536373839616263646566222c22726573" +
		"756c7473223a5b7b227066223a332e31652d397d5d2c22646f6e65223a312c2274" +
		"6f74616c223a322c2263726561746564223a22323032362d30312d30325430333a" +
		"30343a30355a222c2273746172746564223a22323032362d30312d30325430333a" +
		"30343a30365a227d2cac8b29"
	if got := hex.EncodeToString(data); got != pinned {
		t.Fatalf("Put wrote\n%s\npinned\n%s", got, pinned)
	}
}
