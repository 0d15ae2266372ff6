package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// This file holds the table-codec hooks used by the persistent sweep store
// (internal/sweepstore): the binary PMF layout it writes (and decodes,
// streamed, into one contiguous table) and the inverse of Fingerprint, so a
// law can be reconstructed from the identity string its cached tables are
// keyed under.

// ParseFingerprint reconstructs a distribution from the identity string
// returned by Fingerprint. It inverts every Fingerprinter in this package;
// parameters round-trip bit-exactly because fingerprints encode raw float64
// bits. Reconstructed laws go through the same constructors as fresh ones,
// so invalid parameters (from a corrupted or hand-edited string) are
// rejected rather than producing a broken law.
func ParseFingerprint(s string) (Continuous, error) {
	parts := strings.Split(s, ":")
	fail := func() (Continuous, error) {
		return nil, fmt.Errorf("dist: malformed fingerprint %q", s)
	}
	vals := make([]float64, len(parts)-1)
	for i, p := range parts[1:] {
		var bits uint64
		if _, err := fmt.Sscanf(p, "%016x", &bits); err != nil || len(p) != 16 {
			return fail()
		}
		vals[i] = math.Float64frombits(bits)
	}
	switch parts[0] {
	case "exp":
		if len(vals) != 1 {
			return fail()
		}
		e := Exponential{Rate: vals[0]}
		if !(e.Rate > 0) || math.IsInf(e.Rate, 0) || math.IsNaN(e.Rate) {
			return nil, fmt.Errorf("dist: fingerprint %q: rate %g invalid", s, e.Rate)
		}
		return e, nil
	case "det":
		if len(vals) != 1 {
			return fail()
		}
		d := Deterministic{V: vals[0]}
		if !(d.V > 0) || math.IsInf(d.V, 0) || math.IsNaN(d.V) {
			return nil, fmt.Errorf("dist: fingerprint %q: value %g invalid", s, d.V)
		}
		return d, nil
	case "tnorm":
		if len(vals) != 4 {
			return fail()
		}
		t, err := NewTruncNormal(vals[0], vals[1], vals[2], vals[3])
		if err != nil {
			return nil, fmt.Errorf("dist: fingerprint %q: %w", s, err)
		}
		return t, nil
	default:
		return nil, fmt.Errorf("dist: unknown fingerprint kind %q", s)
	}
}

// AppendBinary appends the PMF in a length-prefixed little-endian layout
// (uvarint mass count, then raw float64 bits per mass). The exact bit
// patterns are preserved, so a decode is bit-identical to the source.
func (p PMF) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.P)))
	for _, v := range p.P {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}
