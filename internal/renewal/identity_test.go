package renewal

import (
	"testing"

	"github.com/cnfet/yieldlab/internal/dist"
)

// TestSnapshotKeyPinned pins the identity string that names sweep-store
// records, for the paper-default grid over the calibrated pitch law. Every
// record of the current store format is filed under such strings, so a
// formatting change here would orphan every stored table (and re-sweep it)
// even though no number changed.
func TestSnapshotKeyPinned(t *testing.T) {
	paper, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		law  dist.Continuous
		opts []Option
		want string
	}{
		{paper, []Option{WithStep(0.05), WithMaxWidth(440)},
			"tnorm:c02c152a87242667:4022666666666666:0000000000000000:7ff0000000000000|step=3fa999999999999a|max=407b800000000000|eps=3cd203af9ee75616|ord=false"},
	}
	for i, tc := range cases {
		m, err := New(tc.law, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := dist.Fingerprint(tc.law)
		if !ok {
			t.Fatalf("case %d: law has no fingerprint", i)
		}
		if got := m.Snapshot().Key(fp); got != tc.want {
			t.Errorf("case %d: Snapshot.Key = %q, pinned %q", i, got, tc.want)
		}
		if got := cacheKey(fp, m); got != tc.want {
			t.Errorf("case %d: cache key = %q, pinned %q", i, got, tc.want)
		}
	}
}
