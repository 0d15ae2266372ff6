package sweepstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

// A mass byte flipped so that the body still decodes — every check passes
// — is caught by the checksum the reader verifies at EOF: the record is
// rejected and quarantined, and no table is restored.
func TestChecksumOnlyCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	law := dist.Exponential{Rate: 0.25}
	snap := buildModel(t, renewal.NewSweepCache(), law, 40).Snapshot()
	fp, _ := dist.Fingerprint(law)
	if err := store.Save(fp, snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(fp, snap)+fileExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The low mantissa byte of the table's last mass, just before the CRC.
	data[len(data)-4-8] ^= 0x01
	body := data[8 : len(data)-4]
	if _, err := decode(bytes.NewReader(body), int64(len(body))); err != nil {
		t.Fatalf("flipped body no longer decodes (%v): the test must corrupt only the checksum's view", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := renewal.NewSweepCache()
	if n, err := WarmCache(fresh, cache); err != nil || n != 0 {
		t.Fatalf("WarmCache restored %d tables (err %v), want 0", n, err)
	}
	if st := fresh.Stats(); st.Loads != 0 || st.Rejects != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 reject, 1 quarantined", st)
	}
	if n := cache.Stats().Entries; n != 0 {
		t.Fatalf("cache holds %d entries, want 0", n)
	}
	if _, err := os.Stat(path + badExt); err != nil {
		t.Fatalf("record not quarantined: %v", err)
	}
}

// A restored table equals the swept one bit for bit, and its PMFs are
// consecutive full-slice views of one backing array: cap == len, so an
// append through one PMF copies instead of overwriting its neighbour.
func TestRestoredTableContiguous(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := renewal.NewSweepCache()
	swept := map[string]*renewal.Snapshot{}
	for _, law := range []dist.Continuous{pitchLaw(t), dist.Exponential{Rate: 0.25}} {
		fp, _ := dist.Fingerprint(law)
		swept[fp] = buildModel(t, cache, law, 80).Snapshot()
	}
	if _, err := PersistCache(store, cache); err != nil {
		t.Fatal(err)
	}
	recs, err := store.LoadAll()
	if err != nil || len(recs) != len(swept) {
		t.Fatalf("LoadAll: %d records, %v", len(recs), err)
	}
	for _, rec := range recs {
		want := swept[rec.Fingerprint]
		got := rec.Snapshot
		if want == nil || got.Step != want.Step || got.MaxWidth != want.MaxWidth || len(got.PMFs) != len(want.PMFs) {
			t.Fatalf("%s: restored grid or table length differs", rec.Fingerprint)
		}
		next := unsafe.SliceData(got.PMFs[0].P)
		for i, pmf := range got.PMFs {
			if pmf.Len() != want.PMFs[i].Len() {
				t.Fatalf("%s PMF %d: support %d, swept %d", rec.Fingerprint, i+1, pmf.Len(), want.PMFs[i].Len())
			}
			for k, v := range pmf.P {
				if math.Float64bits(v) != math.Float64bits(want.PMFs[i].P[k]) {
					t.Fatalf("%s PMF %d count %d: %x, swept %x", rec.Fingerprint, i+1, k,
						math.Float64bits(v), math.Float64bits(want.PMFs[i].P[k]))
				}
			}
			if cap(pmf.P) != len(pmf.P) {
				t.Fatalf("%s PMF %d: cap %d, len %d", rec.Fingerprint, i+1, cap(pmf.P), len(pmf.P))
			}
			if unsafe.SliceData(pmf.P) != next {
				t.Fatalf("%s PMF %d does not follow PMF %d in the backing array", rec.Fingerprint, i+1, i)
			}
			next = (*float64)(unsafe.Add(unsafe.Pointer(next), 8*len(pmf.P)))
		}
		second := math.Float64bits(got.PMFs[1].P[0])
		_ = append(got.PMFs[0].P, 1)
		if math.Float64bits(got.PMFs[1].P[0]) != second {
			t.Fatalf("%s: an append through PMF 1 overwrote PMF 2", rec.Fingerprint)
		}
	}
}

// testBody encodes a record body over the grid (1, horizon) whose table
// holds the given masses, unvalidated.
func testBody(fp string, horizon int, pmfs ...[]float64) []byte {
	snap := &renewal.Snapshot{Step: 1, MaxWidth: float64(horizon)}
	for _, p := range pmfs {
		snap.PMFs = append(snap.PMFs, dist.PMF{P: p})
	}
	return encode(fp, snap)
}

// decode makes every check dist.NewPMF and the format make: each refused
// body fails exactly one check, named by its error, and the accepted ones
// pin the edges (-0, a total a hair above 1).
func TestDecodeValidation(t *testing.T) {
	const fp = "exp:3fd0000000000000"
	one := []float64{0, 1}
	valid := testBody(fp, 2, one, one)
	// The last PMF's length prefix claims 3 masses; 2 follow.
	overlong := append([]byte(nil), valid...)
	overlong[len(overlong)-17] = 3
	// The last PMF's length prefix claims 1<<24 + 1 masses.
	huge := append(append([]byte(nil), valid[:len(valid)-17]...), 0x81, 0x80, 0x80, 0x08)
	huge = append(huge, make([]byte, 16)...)
	cases := []struct {
		name string
		body []byte
		want string // "" for an accepted body
	}{
		{"valid", valid, ""},
		{"negative zero", testBody(fp, 2, []float64{math.Copysign(0, -1), 1}, one), ""},
		{"total within 1e-9", testBody(fp, 2, []float64{0.5, 0.5 + 5e-10}, one), ""},
		{"negative mass", testBody(fp, 2, []float64{-1e-300, 1}, one), "invalid"},
		{"NaN mass", testBody(fp, 2, []float64{math.NaN(), 1}, one), "invalid"},
		{"+Inf mass", testBody(fp, 2, []float64{math.Inf(1), 1}, one), "invalid"},
		{"-Inf mass", testBody(fp, 2, []float64{math.Inf(-1), 1}, one), "invalid"},
		{"no mass", testBody(fp, 2, []float64{0, 0}, one), "no mass"},
		{"total above 1", testBody(fp, 2, []float64{0.5, 0.5 + 2e-9}, one), "exceeds 1"},
		{"empty support", testBody(fp, 2, []float64{}, one), "support 0 out of range"},
		{"support above 1<<24", huge, "out of range"},
		{"payload truncated", overlong, "payload truncated"},
		{"table overruns body", valid[:len(valid)-17], "overruns"},
		{"horizon mismatch", testBody(fp, 2, one, one, one), "grid horizon"},
		{"trailing byte", append(append([]byte(nil), valid...), 0), "trailing"},
		{"bad grid", testBody(fp, 1, one), "grid (1, 1) invalid"},
		{"bad fingerprint", testBody("exp:zz", 2, one, one), "fingerprint"},
		{"header truncated", valid[:1+len(fp)+24], "header truncated"},
		{"empty body", nil, "fingerprint length corrupt"},
	}
	for _, tc := range cases {
		rec, err := decode(bytes.NewReader(tc.body), int64(len(tc.body)))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want == "" && (rec.Fingerprint != fp || len(rec.Snapshot.PMFs) != 2):
			t.Errorf("%s: decoded %q with %d PMFs", tc.name, rec.Fingerprint, len(rec.Snapshot.PMFs))
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one about %q", tc.name, err, tc.want)
		}
	}
}

// Every truncation of a record body is refused, never half-decoded.
func TestTruncatedBodyRejected(t *testing.T) {
	law := dist.Exponential{Rate: 0.25}
	fp, _ := dist.Fingerprint(law)
	body := encode(fp, buildModel(t, renewal.NewSweepCache(), law, 4).Snapshot())
	for n := range body {
		if _, err := decode(bytes.NewReader(body[:n]), int64(n)); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(body))
		}
		// A reader that ends before the declared size is refused too.
		if _, err := decode(bytes.NewReader(body[:n]), int64(len(body))); err == nil {
			t.Fatalf("body ending at %d of %d declared bytes accepted", n, len(body))
		}
	}
	if _, err := decode(bytes.NewReader(body), int64(len(body))); err != nil {
		t.Fatalf("whole body refused: %v", err)
	}
}

// FuzzSweepRecord feeds arbitrary bodies to decode: it must refuse or
// accept without panicking, allocate no more than a fixed multiple of the
// body (so recfile's file-size bound bounds it), and hand out only
// full-slice PMFs over the whole grid.
func FuzzSweepRecord(f *testing.F) {
	law := dist.Exponential{Rate: 0.25}
	fp, _ := dist.Fingerprint(law)
	m, err := renewal.New(law, renewal.WithStep(0.5), renewal.WithMaxWidth(4))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := m.CountPMF(4); err != nil {
		f.Fatal(err)
	}
	body := encode(fp, m.Snapshot())
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add(append(append([]byte(nil), body...), 0))
	f.Add(testBody(fp, 2, []float64{0, 1}, []float64{1}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := decode(bytes.NewReader(body), int64(len(body)))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 6*uint64(len(body))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(body), alloc)
		}
		if err != nil {
			return
		}
		snap := rec.Snapshot
		if n := int(math.Round(snap.MaxWidth / snap.Step)); len(snap.PMFs) != n {
			t.Fatalf("accepted %d PMFs for a %d-cell grid", len(snap.PMFs), n)
		}
		for i, pmf := range snap.PMFs {
			if pmf.Len() == 0 || cap(pmf.P) != pmf.Len() {
				t.Fatalf("PMF %d: len %d, cap %d", i+1, pmf.Len(), cap(pmf.P))
			}
		}
	})
}
