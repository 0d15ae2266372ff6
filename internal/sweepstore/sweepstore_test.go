package sweepstore

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/renewal"
)

// fileExt and badExt are the record and quarantine file suffixes.
const fileExt, badExt = ".sweep", ".bad"

// buildModel sweeps a small calibrated-pitch model to the given width.
func buildModel(t *testing.T, cache *renewal.SweepCache, law dist.Continuous, maxW float64) *renewal.Model {
	t.Helper()
	m, err := cache.Model(law, renewal.WithStep(0.1), renewal.WithMaxWidth(maxW))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CountPMF(maxW); err != nil {
		t.Fatal(err)
	}
	return m
}

func pitchLaw(t *testing.T) dist.Continuous {
	t.Helper()
	p, err := device.CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Round trip: persist swept tables, load them into a fresh cache, and
// require the restored count PMFs — and hence pF for all three paper
// corners — to be bit-exact.
func TestRoundTripBitExact(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	laws := []dist.Continuous{
		pitchLaw(t),
		dist.Exponential{Rate: 0.25},
		dist.Deterministic{V: 4},
	}
	cache := renewal.NewSweepCache()
	for _, law := range laws {
		buildModel(t, cache, law, 80)
	}
	n, err := PersistCache(store, cache)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(laws) {
		t.Fatalf("persisted %d records, want %d", n, len(laws))
	}

	warm := renewal.NewSweepCache()
	restored, err := WarmCache(store, warm)
	if err != nil {
		t.Fatal(err)
	}
	if restored != len(laws) {
		t.Fatalf("restored %d records, want %d", restored, len(laws))
	}
	widths := []float64{10, 35.5, 80}
	for _, law := range laws {
		orig := buildModel(t, cache, law, 80)
		re, err := warm.Model(law, renewal.WithStep(0.1), renewal.WithMaxWidth(80))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range widths {
			a, err := orig.CountPMF(w)
			if err != nil {
				t.Fatal(err)
			}
			b, err := re.CountPMF(w)
			if err != nil {
				t.Fatal(err)
			}
			if a.Len() != b.Len() {
				t.Fatalf("law %v w=%g: support %d vs %d", law, w, a.Len(), b.Len())
			}
			for k := 0; k < a.Len(); k++ {
				if math.Float64bits(a.Prob(k)) != math.Float64bits(b.Prob(k)) {
					t.Fatalf("law %v w=%g count %d: %x vs %x bits", law, w,
						k, math.Float64bits(a.Prob(k)), math.Float64bits(b.Prob(k)))
				}
			}
			// The three paper corners differ only in pf; PGF over bit-equal
			// masses is bit-equal, assert anyway at the corner level.
			for _, c := range device.PaperCorners() {
				pf := c.Params.PerCNTFailure()
				if math.Float64bits(a.PGF(pf)) != math.Float64bits(b.PGF(pf)) {
					t.Fatalf("law %v w=%g corner %s: pF differs after round trip", law, w, c.Name)
				}
			}
		}
	}
	// Restored tables must answer without sweeping.
	if st := warm.Stats(); st.Sweeps != 0 {
		t.Fatalf("warm cache ran %d sweeps, want 0", st.Sweeps)
	}
}

// Every single-byte corruption, truncation, or extension of a record file
// must be rejected at load time, never half-decoded into the cache.
func TestCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := renewal.NewSweepCache()
	buildModel(t, cache, dist.Exponential{Rate: 0.25}, 40)
	if _, err := PersistCache(store, cache); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+fileExt))
	if err != nil || len(files) != 1 {
		t.Fatalf("want 1 store file, got %v (err %v)", files, err)
	}
	orig, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(files[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := fresh.LoadAll()
		if err != nil {
			t.Fatalf("%s: LoadAll should skip, not fail: %v", name, err)
		}
		if len(recs) != 0 {
			t.Fatalf("%s: corrupt record was accepted", name)
		}
		if st := fresh.Stats(); st.Rejects != 1 {
			t.Fatalf("%s: rejects = %d, want 1", name, st.Rejects)
		}
	}

	// Flip one byte in several positions: magic, header, payload, CRC.
	for _, pos := range []int{0, 7, 12, len(orig) / 2, len(orig) - 2} {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x40
		check("bit flip", mut)
	}
	// Truncations at several depths.
	for _, n := range []int{0, 4, 11, len(orig) / 3, len(orig) - 1} {
		check("truncation", orig[:n])
	}
	// Trailing garbage.
	check("trailing bytes", append(append([]byte(nil), orig...), 0xAA))

	// The pristine bytes still load.
	if err := os.WriteFile(files[0], orig, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fresh.LoadAll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("pristine file failed to load: %v (%d records)", err, len(recs))
	}
}

// TestSaveBytesPinned pins the exact bytes Save writes for two small
// records, so a store directory written by an earlier build of format
// version 2 keeps warming later builds bit-exactly. A change here is a
// format change: bump the magic's version byte instead of re-pinning.
func TestSaveBytesPinned(t *testing.T) {
	cases := []struct {
		law  dist.Continuous
		name string
		size int
		sha  string
	}{
		{dist.Exponential{Rate: 0.25}, "a4bc73c7f77ef911.sweep", 100140,
			"fa1d42f4382a7434a1789c120954a4b46f627d5e9198f4fed997a8af7837446b"},
		{pitchLaw(t), "8701520984421181.sweep", 94921,
			"aac0c7f74604b5bc3c6d26e59e410bf4663271f8c395182b3b16b6ae8b97af85"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		store, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := buildModel(t, renewal.NewSweepCache(), tc.law, 40)
		fp, _ := dist.Fingerprint(tc.law)
		if err := store.Save(fp, m.Snapshot()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, tc.name))
		if err != nil {
			t.Fatalf("%s: %v", fp, err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != tc.size || sum != tc.sha {
			t.Errorf("%s: Save wrote %d bytes, sha256 %s; pinned %d bytes, %s", fp, len(data), sum, tc.size, tc.sha)
		}
	}
}

// Save refuses a snapshot that is not the whole grid.
func TestSaveRejectsPartialTable(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	law := dist.Exponential{Rate: 0.25}
	snap := *buildModel(t, renewal.NewSweepCache(), law, 40).Snapshot()
	snap.PMFs = snap.PMFs[:len(snap.PMFs)/2]
	fp, _ := dist.Fingerprint(law)
	if err := store.Save(fp, &snap); err == nil {
		t.Fatal("Save accepted a half-grid table")
	}
	if st := store.Stats(); st.Saves != 0 {
		t.Fatalf("saves = %d, want 0", st.Saves)
	}
}

// PersistCache writes each record once: a second checkpoint of the same
// tables, or one after warming from the store, writes nothing and reads
// nothing.
func TestPersistCacheSkipsKnownRecords(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := renewal.NewSweepCache()
	buildModel(t, cache, dist.Exponential{Rate: 0.25}, 40)
	if n, err := PersistCache(store, cache); err != nil || n != 1 {
		t.Fatalf("first persist wrote %d (err %v), want 1", n, err)
	}
	if n, err := PersistCache(store, cache); err != nil || n != 0 {
		t.Fatalf("second persist wrote %d (err %v), want 0", n, err)
	}

	warmStore, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := renewal.NewSweepCache()
	if n, err := WarmCache(warmStore, warm); err != nil || n != 1 {
		t.Fatalf("warmed %d records (err %v), want 1", n, err)
	}
	// A never-firing trigger counts every store read.
	if err := fault.Enable(fault.SiteStoreLoad, "error(x)@nth=1000000000"); err != nil {
		t.Fatal(err)
	}
	if n, err := PersistCache(warmStore, warm); err != nil || n != 0 {
		t.Fatalf("persist after warming wrote %d (err %v), want 0", n, err)
	}
	if st := fault.Stats(); len(st) != 1 || st[0].Calls != 0 {
		t.Fatalf("persist read the store: %+v", st)
	}
}

// Distinct grids of one law must coexist as distinct records.
func TestDistinctGridsCoexist(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := renewal.NewSweepCache()
	law := dist.Exponential{Rate: 0.25}
	for _, maxW := range []float64{40, 80} {
		m, err := cache.Model(law, renewal.WithStep(0.1), renewal.WithMaxWidth(maxW))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.CountPMF(maxW); err != nil {
			t.Fatal(err)
		}
	}
	n, err := PersistCache(store, cache)
	if err != nil || n != 2 {
		t.Fatalf("persisted %d (err %v), want 2", n, err)
	}
	recs, err := store.LoadAll()
	if err != nil || len(recs) != 2 {
		t.Fatalf("LoadAll: %v (%d records)", err, len(recs))
	}
}

// A snapshot must refuse to restore into a model with a different grid.
func TestRestoreRejectsGridMismatch(t *testing.T) {
	cache := renewal.NewSweepCache()
	m := buildModel(t, cache, dist.Exponential{Rate: 0.25}, 40)
	snap := m.Snapshot()
	other, err := renewal.New(dist.Exponential{Rate: 0.25}, renewal.WithStep(0.05), renewal.WithMaxWidth(40))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Fatal("restore across grids must fail")
	}
}

// Corrupt files are quarantined to .bad on load: renamed aside (so they are
// never re-rejected on later restarts) and counted in Stats().Quarantined.
func TestCorruptFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := renewal.NewSweepCache()
	buildModel(t, cache, dist.Exponential{Rate: 0.25}, 40)
	if _, err := PersistCache(store, cache); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+fileExt))
	if err != nil || len(files) != 1 {
		t.Fatalf("want 1 store file, got %v (err %v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // break the CRC
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fresh.LoadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("LoadAll = %d recs, %v", len(recs), err)
	}
	if st := fresh.Stats(); st.Rejects != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 reject, 1 quarantined", st)
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still in place: %v", err)
	}
	if _, err := os.Stat(files[0] + badExt); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// A second start sees a clean directory: no repeat reject.
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := again.LoadAll(); err != nil || len(recs) != 0 {
		t.Fatalf("second LoadAll = %d recs, %v", len(recs), err)
	}
	if st := again.Stats(); st.Rejects != 0 || st.Quarantined != 0 {
		t.Fatalf("second-start stats = %+v, want all zero", st)
	}
}

// An injected transient read failure skips the record without quarantining
// the (intact) file.
func TestInjectedLoadFaultDoesNotQuarantine(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := renewal.NewSweepCache()
	buildModel(t, cache, dist.Exponential{Rate: 0.25}, 40)
	if _, err := PersistCache(store, cache); err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable(fault.SiteStoreLoad, "error(io)@nth=1"); err != nil {
		t.Fatal(err)
	}
	recs, err := store.LoadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("LoadAll under fault = %d recs, %v", len(recs), err)
	}
	if st := store.Stats(); st.Quarantined != 0 || st.Rejects != 1 {
		t.Fatalf("stats = %+v: transient failure must reject without quarantine", st)
	}
	recs, err = store.LoadAll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("LoadAll after fault = %d recs, %v", len(recs), err)
	}
}

// A transient save failure is retried and succeeds; a permanent one
// surfaces once the attempts are spent.
func TestSaveRetriesTransientFailures(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := renewal.NewSweepCache()
	law := dist.Exponential{Rate: 0.25}
	m := buildModel(t, cache, law, 40)
	fp, _ := dist.Fingerprint(law)

	// The first two attempts fail, the third lands.
	if err := fault.Enable(fault.SiteStoreSave, "error(disk)@times=2"); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(fp, m.Snapshot()); err != nil {
		t.Fatalf("retried save failed: %v", err)
	}
	if st := store.Stats(); st.Saves != 1 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 1 save after 2 retries", st)
	}

	// A permanent failure still surfaces after the attempts are spent.
	if err := fault.Enable(fault.SiteStoreSave, "error(dead disk)"); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(fp+"x", m.Snapshot()); err == nil {
		t.Fatal("permanent failure did not surface")
	}
}
