package dist

import (
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Fingerprinter is implemented by distributions whose parameters fully
// determine their behavior, yielding a stable identity string. Fingerprints
// key the cross-model caches: the renewal sweep cache shares one swept count
// table between models built on the same law, and ForwardRecurrenceFor
// shares stationary-sampler tables the same way.
//
// Two fingerprints are equal iff the distributions are numerically
// identical (parameters compared by exact float64 bits), so a cache hit can
// never change a result.
type Fingerprinter interface {
	// Fingerprint returns the law's identity string. It must be stable
	// across processes and collision-free across different parameters.
	Fingerprint() string
}

// Fingerprint returns the law's identity string and whether the law
// provides one. Laws without a fingerprint cannot be cached across models.
func Fingerprint(d Continuous) (string, bool) {
	f, ok := d.(Fingerprinter)
	if !ok {
		return "", false
	}
	return f.Fingerprint(), true
}

// AppendHexBits appends v's exact bit pattern as 16 lowercase hex digits —
// the "%016x" rendering of math.Float64bits(v) — so identity strings
// distinguish values a decimal format would conflate (and normalize
// nothing: -0 and +0 differ, as do NaN payloads — construction validation
// rejects those anyway). Fingerprints and the renewal grid keys built from
// it name sweep-store files, so the format is frozen.
func AppendHexBits(dst []byte, v float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	return hex.AppendEncode(dst, b[:])
}

// fingerprintOf renders a law tag followed by its parameters' bit patterns,
// colon-separated.
func fingerprintOf(tag string, params ...float64) string {
	b := make([]byte, 0, len(tag)+17*len(params))
	b = append(b, tag...)
	for i, v := range params {
		if i > 0 {
			b = append(b, ':')
		}
		b = AppendHexBits(b, v)
	}
	return string(b)
}

// Fingerprint implements Fingerprinter.
func (e Exponential) Fingerprint() string {
	return fingerprintOf("exp:", e.Rate)
}

// Fingerprint implements Fingerprinter.
func (d Deterministic) Fingerprint() string {
	return fingerprintOf("det:", d.V)
}

// Fingerprint implements Fingerprinter. The parent parameters and bounds
// fully determine a truncated normal; the precomputed moments derive from
// them.
func (t TruncNormal) Fingerprint() string {
	return fingerprintOf("tnorm:", t.Mu, t.Sigma, t.Lower, t.Upper)
}
