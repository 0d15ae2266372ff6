package dist

import (
	"bytes"
	"math"
	"testing"
)

// ParseFingerprint must invert Fingerprint bit-exactly for every law kind.
func TestParseFingerprintRoundTrip(t *testing.T) {
	tn, err := TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	laws := []Continuous{
		Exponential{Rate: 0.25},
		Deterministic{V: 4},
		tn,
	}
	for _, law := range laws {
		fp, ok := Fingerprint(law)
		if !ok {
			t.Fatalf("%T has no fingerprint", law)
		}
		back, err := ParseFingerprint(fp)
		if err != nil {
			t.Fatalf("%q: %v", fp, err)
		}
		fp2, ok := Fingerprint(back)
		if !ok || fp2 != fp {
			t.Fatalf("round trip changed fingerprint: %q -> %q", fp, fp2)
		}
		// Moments agree exactly: the same constructors ran on the same bits.
		if math.Float64bits(back.Mean()) != math.Float64bits(law.Mean()) ||
			math.Float64bits(back.StdDev()) != math.Float64bits(law.StdDev()) {
			t.Fatalf("%q: moments differ after round trip", fp)
		}
	}
}

func TestParseFingerprintRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"exp",
		"exp:",
		"exp:zzzz",
		"exp:0000000000000000",   // rate 0
		"exp:7ff0000000000000",   // rate +Inf
		"det:fff0000000000000",   // -Inf
		"tnorm:0:1:2",            // wrong arity
		"gauss:4010000000000000", // unknown kind
		"exp:40100000000000000",  // 17 hex digits
		"tnorm:4010000000000000:0000000000000000:0000000000000000:7ff0000000000000", // sigma 0
	}
	for _, s := range bad {
		if _, err := ParseFingerprint(s); err == nil {
			t.Errorf("ParseFingerprint(%q) accepted", s)
		}
	}
}

// The PMF codec writes the uvarint mass count, then each mass's raw
// little-endian float64 bits, -0 and subnormals included.
func TestPMFCodec(t *testing.T) {
	src := PMF{P: []float64{math.Copysign(0, -1), 0.25, 5e-324, 0.75}}
	want := []byte{4,
		0, 0, 0, 0, 0, 0, 0, 0x80,
		0, 0, 0, 0, 0, 0, 0xd0, 0x3f,
		1, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0xe8, 0x3f,
	}
	if got := src.AppendBinary([]byte{0xaa}); !bytes.Equal(got, append([]byte{0xaa}, want...)) {
		t.Fatalf("AppendBinary = % x, want aa % x", got, want)
	}
	// A support of 128 masses takes a two-byte prefix.
	long := PMF{P: make([]float64, 128)}
	if got := long.AppendBinary(nil); len(got) != 2+8*128 || got[0] != 0x80 || got[1] != 0x01 {
		t.Fatalf("128-mass PMF: %d bytes, prefix % x", len(got), got[:2])
	}
}
