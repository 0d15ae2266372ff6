package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"unicode/utf8"

	"github.com/cnfet/yieldlab/internal/tech"
)

// The strict Spec decoder. A /v2/query body or a Parse input is exactly one
// JSON object with no unknown field and nothing but whitespace after it.
// DecodeSpec scans the bytes it is given once, without reflection, for
// what real bodies hold: exact-case known keys, JSON whitespace anywhere,
// strings without escapes, numbers in the JSON grammar parsed with strconv
// as encoding/json parses them, arrays ([] decoding to an empty non-nil
// slice), the sweep object and the pointer fields. On anything else — a
// case-folded, unknown or repeated key, an escape, null, a number its field
// cannot hold, a syntax error, trailing data or a read error — it declines
// and hands the same bytes to encoding/json with DisallowUnknownFields and
// the trailing Token check, so the decoded Spec and every error text are the ones
// encoding/json gives. FuzzSpecDecode holds the fast path to that decoder.

// errTrailingData is DecodeSpec's error for bytes other than whitespace
// after the spec's JSON value.
var errTrailingData = errors.New("unexpected data after the JSON value")

// DecodeSpec strictly decodes data as one Spec. readErr is the error that
// ended reading data, nil when data is the whole input: the decode then
// sees data followed by that error, as a json.Decoder reading the original
// stream would. Errors are encoding/json's, or a trailing-data error when
// the value is followed by anything but whitespace.
func DecodeSpec(data []byte, readErr error) (Spec, error) {
	if readErr == nil {
		if q, ok := scanSpec(data); ok {
			return q, nil
		}
	}
	var r io.Reader = bytes.NewReader(data)
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var q Spec
	if err := dec.Decode(&q); err != nil {
		return Spec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errTrailingData
	}
	return q, nil
}

// errReader is a reader that fails with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// scanSpec is DecodeSpec's fast path: the Spec encoding/json decodes from
// data, or ok = false where it declines.
func scanSpec(data []byte) (q Spec, ok bool) {
	s := scanner{b: data}
	s.space()
	if !s.spec(&q) {
		return Spec{}, false
	}
	s.space()
	if s.i != len(s.b) {
		return Spec{}, false
	}
	return q, true
}

// scanner reads JSON from b at offset i. Each value method starts at the
// value's first byte and reports false where the fast path declines.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek reports whether the next byte is c, consuming it if so.
func (s *scanner) peek(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// member advances to the next member of the object whose '{' the scanner
// has consumed and returns its name, leaving the scanner at the member's
// value. first marks the object's first member; end reports the closing
// brace.
func (s *scanner) member(first bool) (name []byte, end, ok bool) {
	s.space()
	if s.peek('}') {
		return nil, true, true
	}
	if !first {
		if !s.peek(',') {
			return nil, false, false
		}
		s.space()
	}
	name, ok = s.str()
	if !ok {
		return nil, false, false
	}
	s.space()
	if !s.peek(':') {
		return nil, false, false
	}
	s.space()
	return name, false, true
}

// next advances past whitespace to the next element of the array whose '['
// the scanner has consumed; end reports the closing bracket.
func (s *scanner) next(first bool) (end, ok bool) {
	s.space()
	if s.peek(']') {
		return true, true
	}
	if !first && !s.peek(',') {
		return false, false
	}
	s.space()
	return false, true
}

// str reads a string with no escape, no control byte and valid UTF-8 —
// the strings encoding/json decodes to their bytes as they stand — and
// returns its contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.peek('"') {
		return nil, false
	}
	start := s.i
	ascii := true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			return v, ascii || utf8.Valid(v)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// number reads a number in the JSON grammar and returns its literal.
func (s *scanner) number() ([]byte, bool) {
	b, i := s.b, s.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i >= len(b) || b[i] < '1' || b[i] > '9' || !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[s.i:i]
	s.i = i
	return lit, true
}

func (s *scanner) float(dst *float64) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (s *scanner) floatPtr(dst **float64) bool {
	var f float64
	if !s.float(&f) {
		return false
	}
	*dst = &f
	return true
}

func (s *scanner) integer(dst *int) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (s *scanner) unsigned(dst *uint64) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	*dst = n
	return err == nil
}

func (s *scanner) name(dst *string) bool {
	v, ok := s.str()
	if ok {
		*dst = internName(v)
	}
	return ok
}

// floats reads an array of numbers. The elements land in stack scratch
// first, so the slice is allocated once at its final length.
func (s *scanner) floats(dst *[]float64) bool {
	if !s.peek('[') {
		return false
	}
	var scratch [16]float64
	vs := scratch[:0]
	for first := true; ; first = false {
		end, ok := s.next(first)
		if !ok {
			return false
		}
		if end {
			break
		}
		var f float64
		if !s.float(&f) {
			return false
		}
		vs = append(vs, f)
	}
	*dst = append(make([]float64, 0, len(vs)), vs...)
	return true
}

// names reads an array of strings, allocating the slice once.
func (s *scanner) names(dst *[]string) bool {
	if !s.peek('[') {
		return false
	}
	var scratch [16]string
	vs := scratch[:0]
	for first := true; ; first = false {
		end, ok := s.next(first)
		if !ok {
			return false
		}
		if end {
			break
		}
		var v string
		if !s.name(&v) {
			return false
		}
		vs = append(vs, v)
	}
	*dst = append(make([]string, 0, len(vs)), vs...)
	return true
}

// spec reads a Spec object. Each member sets one bit of seen, so a repeated
// key — which encoding/json would merge into the earlier value — declines.
func (s *scanner) spec(q *Spec) bool {
	if !s.peek('{') {
		return false
	}
	var seen uint32
	for first := true; ; first = false {
		key, end, ok := s.member(first)
		if !ok {
			return false
		}
		if end {
			return true
		}
		var bit uint32
		switch string(key) {
		case "kind":
			bit, ok = 1<<0, s.name(&q.Kind)
		case "corner":
			bit, ok = 1<<1, s.name(&q.Corner)
		case "pm":
			bit, ok = 1<<2, s.floatPtr(&q.PM)
		case "prs":
			bit, ok = 1<<3, s.floatPtr(&q.PRS)
		case "node":
			bit, ok = 1<<4, s.name(&q.Node)
		case "width_nm":
			bit, ok = 1<<5, s.float(&q.WidthNM)
		case "grid_step_nm":
			bit, ok = 1<<6, s.float(&q.GridStepNM)
		case "max_width_nm":
			bit, ok = 1<<7, s.float(&q.MaxWidthNM)
		case "pitch_mean_nm":
			bit, ok = 1<<8, s.float(&q.PitchMeanNM)
		case "pitch_sigma_ratio":
			bit, ok = 1<<9, s.float(&q.PitchSigmaRatio)
		case "m":
			bit, ok = 1<<10, s.float(&q.M)
		case "desired_yield":
			bit, ok = 1<<11, s.float(&q.DesiredYield)
		case "relax_factor":
			bit, ok = 1<<12, s.float(&q.RelaxFactor)
		case "scenario":
			bit, ok = 1<<13, s.name(&q.Scenario)
		case "rounds":
			bit, ok = 1<<14, s.integer(&q.Rounds)
		case "mc_method":
			bit, ok = 1<<15, s.name(&q.MCMethod)
		case "rel_err_target":
			bit, ok = 1<<16, s.float(&q.RelErrTarget)
		case "krows":
			bit, ok = 1<<17, s.float(&q.KRows)
		case "offsets":
			bit, ok = 1<<18, s.floats(&q.Offsets)
		case "offset_probs":
			bit, ok = 1<<19, s.floats(&q.OffsetProbs)
		case "prm":
			bit, ok = 1<<20, s.floatPtr(&q.PRM)
		case "ratio_threshold":
			bit, ok = 1<<21, s.float(&q.RatioThreshold)
		case "experiments":
			bit, ok = 1<<22, s.names(&q.Experiments)
		case "seed":
			bit, ok = 1<<23, s.unsigned(&q.Seed)
		case "sweep":
			bit, ok = 1<<24, s.sweep(&q.Sweep)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// sweep reads a Sweep object into a new Sweep.
func (s *scanner) sweep(dst **Sweep) bool {
	if !s.peek('{') {
		return false
	}
	w := new(Sweep)
	var seen uint8
	for first := true; ; first = false {
		key, end, ok := s.member(first)
		if !ok {
			return false
		}
		if end {
			*dst = w
			return true
		}
		var bit uint8
		switch string(key) {
		case "corners":
			bit, ok = 1<<0, s.names(&w.Corners)
		case "pitch_means_nm":
			bit, ok = 1<<1, s.floats(&w.PitchMeansNM)
		case "nodes":
			bit, ok = 1<<2, s.names(&w.Nodes)
		case "widths_nm":
			bit, ok = 1<<3, s.floats(&w.WidthsNM)
		case "yields":
			bit, ok = 1<<4, s.floats(&w.Yields)
		case "relax_factors":
			bit, ok = 1<<5, s.floats(&w.RelaxFactors)
		case "scenarios":
			bit, ok = 1<<6, s.names(&w.Scenarios)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// wireNames holds the names a spec's string fields take — kinds, corners,
// nodes, scenarios and estimators — so decoding one of them shares the
// package's string instead of allocating a copy.
var wireNames = func() map[string]string {
	m := map[string]string{}
	add := func(names ...string) {
		for _, n := range names {
			m[n] = n
		}
	}
	add(Kinds()...)
	add(cornerShortNames...)
	for n := range scenarioNames {
		add(n)
	}
	for _, n := range tech.PaperNodes() {
		add(n.Name)
	}
	add("plain", "tilted", "splitting", "auto")
	return m
}()

// internName returns b as a string, shared from wireNames when it is one.
func internName(b []byte) string {
	if s, ok := wireNames[string(b)]; ok {
		return s
	}
	return string(b)
}
