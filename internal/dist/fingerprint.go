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

// AppendFingerprint appends the law's identity string to dst and reports
// whether the law provides one — Fingerprint without the string: for the
// package's own laws dst is the only memory written, so a key built in a
// caller's stack buffer stays there. Other Fingerprinters are appended
// from their Fingerprint string.
func AppendFingerprint(dst []byte, d Continuous) ([]byte, bool) {
	switch l := d.(type) {
	case TruncNormal:
		return l.appendFingerprint(dst), true
	case Exponential:
		return l.appendFingerprint(dst), true
	case Deterministic:
		return l.appendFingerprint(dst), true
	case Fingerprinter:
		return append(dst, l.Fingerprint()...), true
	}
	return dst, false
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

// appendFingerprintOf appends a law tag followed by its parameters' bit
// patterns, colon-separated.
func appendFingerprintOf(dst []byte, tag string, params ...float64) []byte {
	dst = append(dst, tag...)
	for i, v := range params {
		if i > 0 {
			dst = append(dst, ':')
		}
		dst = AppendHexBits(dst, v)
	}
	return dst
}

// fingerprintBuf is a stack buffer large enough for every law's
// fingerprint (the truncated normal's is 73 bytes).
type fingerprintBuf [80]byte

func (e Exponential) appendFingerprint(dst []byte) []byte {
	return appendFingerprintOf(dst, "exp:", e.Rate)
}

// Fingerprint implements Fingerprinter.
func (e Exponential) Fingerprint() string {
	var b fingerprintBuf
	return string(e.appendFingerprint(b[:0]))
}

func (d Deterministic) appendFingerprint(dst []byte) []byte {
	return appendFingerprintOf(dst, "det:", d.V)
}

// Fingerprint implements Fingerprinter.
func (d Deterministic) Fingerprint() string {
	var b fingerprintBuf
	return string(d.appendFingerprint(b[:0]))
}

// appendFingerprint appends the parent parameters and bounds, which fully
// determine a truncated normal; the precomputed moments derive from them.
func (t TruncNormal) appendFingerprint(dst []byte) []byte {
	return appendFingerprintOf(dst, "tnorm:", t.Mu, t.Sigma, t.Lower, t.Upper)
}

// Fingerprint implements Fingerprinter.
func (t TruncNormal) Fingerprint() string {
	var b fingerprintBuf
	return string(t.appendFingerprint(b[:0]))
}
