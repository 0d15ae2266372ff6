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

// encodeV1 hand-encodes a record in store format version 1, which carried
// a convolution-mode byte after the initial-condition byte, under the file
// name version 1 gave it (its identity key ended in "|conv=<mode>").
func encodeV1(fp string, snap *renewal.Snapshot, conv byte) (name string, data []byte) {
	body := binary.AppendUvarint(nil, uint64(len(fp)))
	body = append(body, fp...)
	for _, v := range []float64{snap.Step, snap.MaxWidth, snap.TailEps} {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
	}
	body = append(body, 0, conv) // ordinary=false, convMode
	body = binary.AppendUvarint(body, uint64(snap.SweptTo))
	for _, pmf := range snap.PMFs {
		body = pmf.AppendBinary(body)
	}
	data = append([]byte{'C', 'N', 'F', 'S', 'W', 'P', 0, 1}, body...)
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(body))
	return fileName(fmt.Sprintf("%s|conv=%d", snap.Key(fp), conv)), data
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
	name, data := encodeV1(fp, wrong, 0)
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
	if snap.SweptTo != fresh.SweptTo {
		t.Fatalf("reloaded horizon %d, fresh sweep %d", snap.SweptTo, fresh.SweptTo)
	}
	for i, pmf := range snap.PMFs {
		if !bytes.Equal(pmf.AppendBinary(nil), fresh.PMFs[i].AppendBinary(nil)) {
			t.Fatalf("reloaded PMF at grid index %d differs from the fresh sweep", i+1)
		}
	}
}
