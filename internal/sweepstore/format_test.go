package sweepstore_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/sweepstore"
)

// encodeRecord hand-encodes a record of the given format version with the
// given tail-epsilon and initial-condition fields (the store writes
// renewal.DefaultTailEps and 0). Version 1 carried a convolution-mode byte
// (here 0) after the initial-condition byte; version 2 is the current
// layout. The table length written is len(snap.PMFs), whatever the grid.
func encodeRecord(version byte, fp string, snap *renewal.Snapshot, eps float64, initial byte) []byte {
	body := binary.AppendUvarint(nil, uint64(len(fp)))
	body = append(body, fp...)
	for _, v := range []float64{snap.Step, snap.MaxWidth, eps} {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
	}
	body = append(body, initial)
	if version == 1 {
		body = append(body, 0) // convMode
	}
	body = binary.AppendUvarint(body, uint64(len(snap.PMFs)))
	for _, pmf := range snap.PMFs {
		body = pmf.AppendBinary(body)
	}
	data := append([]byte{'C', 'N', 'F', 'S', 'W', 'P', 0, version}, body...)
	return binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(body))
}

// fileName is the store's file name for a record of the identity key.
func fileName(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x.sweep", h.Sum64())
}

// TestVersion1RecordRejected writes a well-formed version 1 record for the
// calibrated pitch law whose tables are really another law's — the stand-in
// for bits swept under a host-measured kernel crossover. The store must
// quarantine it unread, and a session warmed from the directory must sweep
// afresh, serve the fresh sweep's bits and persist them as a version 2
// record that loads back bit-exactly.
func TestVersion1RecordRejected(t *testing.T) {
	law, err := device.CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := dist.Fingerprint(law)
	if !ok {
		t.Fatal("calibrated pitch law has no fingerprint")
	}
	const step, maxW, width = 0.1, 80.0, 40.0
	opts := []renewal.Option{renewal.WithStep(step), renewal.WithMaxWidth(maxW)}
	sweep := func(law dist.Continuous) *renewal.Snapshot {
		m, err := renewal.New(law, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.CountPMF(maxW); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	fresh := sweep(law)
	wrong := sweep(dist.Exponential{Rate: 0.25})
	// Version 1 named a record after an identity key ending "|conv=<mode>".
	name := fileName(wrong.Key(fp) + "|conv=0")
	data := encodeRecord(1, fp, wrong, renewal.DefaultTailEps, 0)
	dir := t.TempDir()
	writeV1 := func() {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// LoadAll rejects and quarantines the record.
	writeV1()
	store, err := sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("LoadAll decoded %d version 1 records, want 0", len(recs))
	}
	if st := store.Stats(); st.Rejects != 1 || st.Quarantined != 1 || st.Loads != 0 {
		t.Fatalf("stats after LoadAll = %+v, want 1 reject, 1 quarantined, 0 loads", st)
	}
	if _, err := os.Stat(filepath.Join(dir, name+".bad")); err != nil {
		t.Fatalf("version 1 record not quarantined: %v", err)
	}

	// A session warmed from the directory sweeps once and serves fresh bits.
	writeV1()
	store, err = sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := query.NewSession(query.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Rejects != 1 || st.Quarantined != 1 || st.Loads != 0 {
		t.Fatalf("stats after warming = %+v, want 1 reject, 1 quarantined, 0 loads", st)
	}
	spec := query.Spec{Kind: query.KindPF, WidthNM: width, GridStepNM: step, MaxWidthNM: maxW}
	got, err := sess.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := sess.Cache().Stats().Sweeps; n != 1 {
		t.Fatalf("session ran %d sweeps, want 1", n)
	}
	ref, err := query.NewSession(query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.PF.PF) != math.Float64bits(want.PF.PF) {
		t.Fatalf("pF(%g nm) = %x, a fresh session serves %x", width,
			math.Float64bits(got.PF.PF), math.Float64bits(want.PF.PF))
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Saves != 1 {
		t.Fatalf("session close saved %d records, want 1", st.Saves)
	}

	// The saved record is version 2 and loads back bit-exactly.
	store, err = sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err = store.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Fingerprint != fp {
		t.Fatalf("reloaded %d records, want the calibrated law's one", len(recs))
	}
	disk, err := os.ReadFile(filepath.Join(dir, fileName(recs[0].Snapshot.Key(fp))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(disk, []byte{'C', 'N', 'F', 'S', 'W', 'P', 0, 2}) {
		t.Fatalf("saved record starts %q, want format version 2", disk[:8])
	}
	snap := recs[0].Snapshot
	if len(snap.PMFs) != len(fresh.PMFs) {
		t.Fatalf("reloaded %d PMFs, fresh sweep %d", len(snap.PMFs), len(fresh.PMFs))
	}
	for i, pmf := range snap.PMFs {
		if !bytes.Equal(pmf.AppendBinary(nil), fresh.PMFs[i].AppendBinary(nil)) {
			t.Fatalf("reloaded PMF at grid index %d differs from the fresh sweep", i+1)
		}
	}
}

// TestShortTableRejected hand-builds an otherwise well-formed version 2
// record whose table stops short of the grid's full horizon: the store must
// refuse it as an integrity failure and quarantine the file, and a session
// warmed from the directory must sweep afresh.
func TestShortTableRejected(t *testing.T) {
	law := dist.Exponential{Rate: 0.25}
	fp, _ := dist.Fingerprint(law)
	const step, maxW = 0.1, 40.0
	m, err := renewal.New(law, renewal.WithStep(step), renewal.WithMaxWidth(maxW))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CountPMF(maxW); err != nil {
		t.Fatal(err)
	}
	short := *m.Snapshot()
	short.PMFs = short.PMFs[:len(short.PMFs)-1]
	name := fileName(short.Key(fp))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), encodeRecord(2, fp, &short, renewal.DefaultTailEps, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := query.NewSession(query.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Rejects != 1 || st.Quarantined != 1 || st.Loads != 0 {
		t.Fatalf("stats after warming = %+v, want 1 reject, 1 quarantined, 0 loads", st)
	}
	if _, err := os.Stat(filepath.Join(dir, name+".bad")); err != nil {
		t.Fatalf("short record not quarantined: %v", err)
	}
	count, err := sess.Cache().Model(law, renewal.WithStep(step), renewal.WithMaxWidth(maxW))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := count.CountPMF(20); err != nil {
		t.Fatal(err)
	}
	if n := count.Sweeps(); n != 1 {
		t.Fatalf("model ran %d sweeps after the short record was refused, want 1", n)
	}
}

// TestFixedFieldsRejected hand-builds well-formed version 2 records whose
// tail epsilon differs from renewal.DefaultTailEps or whose initial
// condition is 1 (the ordinary renewal process no model builds). Neither
// table belongs to any identity the cache serves, so warming must refuse
// it: nothing restored, one reject counted, no cache entry.
func TestFixedFieldsRejected(t *testing.T) {
	law := dist.Exponential{Rate: 0.25}
	fp, _ := dist.Fingerprint(law)
	const step, maxW = 0.1, 40.0
	m, err := renewal.New(law, renewal.WithStep(step), renewal.WithMaxWidth(maxW))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CountPMF(maxW); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	for _, tc := range []struct {
		name    string
		eps     float64
		initial byte
	}{
		{"tail eps", 1e-12, 0},
		{"initial condition", renewal.DefaultTailEps, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			data := encodeRecord(2, fp, snap, tc.eps, tc.initial)
			if err := os.WriteFile(filepath.Join(dir, fileName(snap.Key(fp))), data, 0o644); err != nil {
				t.Fatal(err)
			}
			store, err := sweepstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cache := renewal.NewSweepCache()
			n, err := sweepstore.WarmCache(store, cache)
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Fatalf("WarmCache restored %d tables, want 0", n)
			}
			if st := store.Stats(); st.Rejects != 1 || st.Loads != 0 {
				t.Fatalf("stats = %+v, want 1 reject, 0 loads", st)
			}
			if n := cache.Stats().Entries; n != 0 {
				t.Fatalf("cache holds %d entries, want 0", n)
			}
		})
	}
}
