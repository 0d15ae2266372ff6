package query

import (
	"encoding/json"
	"math"
	"strconv"
)

// Reflection-free JSON for the query wire types. The appenders below write
// exactly the bytes json.Marshal writes for Spec, Sweep, Result and the
// four result payloads — struct field order, omitempty, pointers, the
// float format and HTML-safe string escaping included — so the spec
// fingerprint and the served /v2/query body come out unchanged while the
// warm path skips encoding/json's reflective walk. TestWireFieldCoverage
// and FuzzWireJSON hold them to json.Marshal. An indenting wire writes the
// same value as json.Indent with two spaces per level lays it out, in the
// same pass, so a served body is never re-scanned to indent it.
//
// An appender declines (ok = false) where it would have to differ from
// encoding/json or where encoding/json fails: a NaN or ±Inf float, and a
// Result carrying experiment artifacts or a cost breakdown. The caller then
// marshals with encoding/json, which yields the same bytes or the same
// error.

// AppendJSON appends r's json.Marshal encoding to dst without reflection.
// It reports false, returning dst unchanged, when r holds a NaN or ±Inf
// float, experiment artifacts or a cost breakdown; encoding/json encodes
// those instead.
func (r *Result) AppendJSON(dst []byte) ([]byte, bool) {
	return r.appendWire(wire{b: dst, ok: true})
}

// AppendIndentJSON is AppendJSON laid out as json.Indent(dst, compact,
// prefix, "  ") would lay it out, where prefix is depth levels of two-space
// indentation: the form of r nested depth levels deep in a body indented by
// two spaces per level. Like json.Indent, it writes no indentation before
// the value's opening brace.
func (r *Result) AppendIndentJSON(dst []byte, depth int) ([]byte, bool) {
	return r.appendWire(wire{b: dst, ok: true, indent: true, depth: int32(depth)})
}

func (r *Result) appendWire(w wire) ([]byte, bool) {
	dst := w.b
	if len(r.Experiments) > 0 || r.Cost != nil {
		return dst, false
	}
	w = w.open('{').key("spec").spec(&r.Spec)
	w = w.key("fingerprint").str(r.Fingerprint)
	if r.PF != nil {
		w = w.key("pf").pf(r.PF)
	}
	if r.Wmin != nil {
		w = w.key("wmin").wmin(r.Wmin)
	}
	if r.RowYield != nil {
		w = w.key("rowyield").rowYield(r.RowYield)
	}
	if r.Noise != nil {
		w = w.key("noise").noise(r.Noise)
	}
	w = w.close('}')
	if !w.ok {
		return dst, false
	}
	return w.b, true
}

// appendSpec appends q's json.Marshal encoding to dst, reporting false for
// a non-finite float.
func appendSpec(dst []byte, q *Spec) ([]byte, bool) {
	w := wire{b: dst, ok: true}.spec(q)
	return w.b, w.ok
}

// wire is an append-only JSON writer. Its methods take and return it by
// value, so a buffer on the caller's stack stays there; at 32 bytes and
// four fields the compiler keeps it in registers, so the chain of calls
// copies nothing through memory. ok turns false at the first value
// encoding/json would reject. An indenting wire starts each member and
// element on a new line indented by two spaces per level of depth, the
// nesting of the value being written, and puts a space after each colon;
// its zero value writes compact JSON.
type wire struct {
	b      []byte
	ok     bool
	indent bool
	depth  int32
}

// open starts an object or array with c and enters it.
func (w wire) open(c byte) wire {
	w.b = append(w.b, c)
	w.depth++
	return w
}

// close leaves the object or array being written and ends it with c: on a
// line of its own when indenting, unless it is empty ("{}", "[]").
func (w wire) close(c byte) wire {
	w.depth--
	if n := len(w.b); w.indent && w.b[n-1] != '{' && w.b[n-1] != '[' {
		w = w.newline()
	}
	w.b = append(w.b, c)
	return w
}

// newline starts an indented line at the current depth.
func (w wire) newline() wire {
	if n := 1 + 2*int(w.depth); n <= len(indentation) {
		w.b = append(w.b, indentation[:n]...)
		return w
	}
	w.b = append(w.b, '\n')
	for d := w.depth; d > 0; d-- {
		w.b = append(w.b, ' ', ' ')
	}
	return w
}

// indentation is a line break and the indentation of a line up to 16
// levels deep, which newline copies in one append.
const indentation = "\n                                "

// elem starts element i of the array being written.
func (w wire) elem(i int) wire {
	if i > 0 {
		w.b = append(w.b, ',')
	}
	if w.indent {
		w = w.newline()
	}
	return w
}

// key opens the member named k: a comma unless it is the object's first,
// the line break when indenting, then the quoted name and a colon. Names
// are plain ASCII literals.
func (w wire) key(k string) wire {
	if n := len(w.b); n > 0 && w.b[n-1] != '{' {
		w.b = append(w.b, ',')
	}
	if w.indent {
		w = w.newline()
	}
	w.b = append(append(append(w.b, '"'), k...), '"', ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
	return w
}

// str appends s as a JSON string. Printable ASCII other than the bytes
// encoding/json escapes ("\<>&) is copied between quotes; any other string
// is handed to encoding/json, so control bytes, U+2028/U+2029 and invalid
// UTF-8 come out exactly as json.Marshal writes them.
func (w wire) str(s string) wire {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, quoted...)
			return w
		}
	}
	w.b = append(append(append(w.b, '"'), s...), '"')
	return w
}

// num appends f as encoding/json formats a float64: the shortest
// round-trip decimal, in exponent form below 1e-6 and from 1e21 on, with a
// two-digit negative exponent trimmed to one digit (e-07 → e-7). NaN and
// ±Inf clear ok.
func (w wire) num(f float64) wire {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.ok = false
		return w
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
	return w
}

func (w wire) integer(n int) wire {
	w.b = strconv.AppendInt(w.b, int64(n), 10)
	return w
}

// The opt* methods write an omitempty member: nothing for the zero value
// (an empty string or slice, a nil pointer, 0 or -0), else the member.

func (w wire) optStr(k, s string) wire {
	if s == "" {
		return w
	}
	return w.key(k).str(s)
}

func (w wire) optNum(k string, f float64) wire {
	if f == 0 {
		return w
	}
	return w.key(k).num(f)
}

func (w wire) optPtr(k string, p *float64) wire {
	if p == nil {
		return w
	}
	return w.key(k).num(*p)
}

func (w wire) optInt(k string, n int) wire {
	if n == 0 {
		return w
	}
	return w.key(k).integer(n)
}

func (w wire) optNums(k string, fs []float64) wire {
	if len(fs) == 0 {
		return w
	}
	w = w.key(k).open('[')
	for i, f := range fs {
		w = w.elem(i).num(f)
	}
	return w.close(']')
}

func (w wire) optStrs(k string, ss []string) wire {
	if len(ss) == 0 {
		return w
	}
	w = w.key(k).open('[')
	for i, s := range ss {
		w = w.elem(i).str(s)
	}
	return w.close(']')
}

func (w wire) spec(q *Spec) wire {
	w = w.open('{').key("kind").str(q.Kind)
	w = w.optStr("corner", q.Corner)
	w = w.optPtr("pm", q.PM)
	w = w.optPtr("prs", q.PRS)
	w = w.optStr("node", q.Node)
	w = w.optNum("width_nm", q.WidthNM)
	w = w.optNum("grid_step_nm", q.GridStepNM)
	w = w.optNum("max_width_nm", q.MaxWidthNM)
	w = w.optNum("pitch_mean_nm", q.PitchMeanNM)
	w = w.optNum("pitch_sigma_ratio", q.PitchSigmaRatio)
	w = w.optNum("m", q.M)
	w = w.optNum("desired_yield", q.DesiredYield)
	w = w.optNum("relax_factor", q.RelaxFactor)
	w = w.optStr("scenario", q.Scenario)
	w = w.optInt("rounds", q.Rounds)
	w = w.optStr("mc_method", q.MCMethod)
	w = w.optNum("rel_err_target", q.RelErrTarget)
	w = w.optNum("krows", q.KRows)
	w = w.optNums("offsets", q.Offsets)
	w = w.optNums("offset_probs", q.OffsetProbs)
	w = w.optPtr("prm", q.PRM)
	w = w.optNum("ratio_threshold", q.RatioThreshold)
	w = w.optStrs("experiments", q.Experiments)
	if q.Seed != 0 {
		w = w.key("seed")
		w.b = strconv.AppendUint(w.b, q.Seed, 10)
	}
	if q.Sweep != nil {
		w = w.key("sweep").sweep(q.Sweep)
	}
	return w.close('}')
}

func (w wire) sweep(s *Sweep) wire {
	w = w.open('{')
	w = w.optStrs("corners", s.Corners)
	w = w.optNums("pitch_means_nm", s.PitchMeansNM)
	w = w.optStrs("nodes", s.Nodes)
	w = w.optNums("widths_nm", s.WidthsNM)
	w = w.optNums("yields", s.Yields)
	w = w.optNums("relax_factors", s.RelaxFactors)
	w = w.optStrs("scenarios", s.Scenarios)
	return w.close('}')
}

func (w wire) pf(p *PFResult) wire {
	w = w.open('{').key("corner").str(p.Corner)
	w = w.optStr("node", p.Node)
	w = w.key("width_nm").num(p.WidthNM)
	w = w.key("pf_cnt").num(p.PFCNT)
	w = w.key("pf").num(p.PF)
	return w.close('}')
}

func (w wire) wmin(p *WminResult) wire {
	w = w.open('{').key("corner").str(p.Corner)
	w = w.optStr("node", p.Node)
	w = w.key("m").num(p.M)
	w = w.key("desired_yield").num(p.DesiredYield)
	w = w.key("relax_factor").num(p.RelaxFactor)
	w = w.key("wmin_nm").num(p.WminNM)
	w = w.key("device_pf").num(p.DevicePF)
	w = w.key("mmin_share").num(p.MminShare)
	return w.close('}')
}

func (w wire) rowYield(p *RowYieldResult) wire {
	w = w.open('{').key("corner").str(p.Corner)
	w = w.optStr("node", p.Node)
	w = w.key("scenario").str(p.Scenario)
	w = w.key("width_nm").num(p.WidthNM)
	w = w.key("mrmin").num(p.MRmin)
	w = w.key("device_pf").num(p.DevicePF)
	w = w.key("prf").num(p.PRF)
	w = w.optNum("stderr", p.StdErr)
	w = w.optInt("rounds", p.Rounds)
	w = w.optStr("mc_method", p.MCMethod)
	w = w.optNum("rel_err", p.RelErr)
	w = w.optNum("tilt_theta", p.TiltTheta)
	w = w.optInt("split_levels", p.SplitLevels)
	w = w.optNum("krows", p.KRows)
	w = w.optNum("chip_yield", p.ChipYield)
	return w.close('}')
}

func (w wire) noise(p *NoiseResult) wire {
	w = w.open('{').key("corner").str(p.Corner)
	w = w.optStr("node", p.Node)
	w = w.key("width_nm").num(p.WidthNM)
	w = w.key("prm").num(p.PRM)
	w = w.key("ratio_threshold").num(p.RatioThreshold)
	w = w.key("violation_prob").num(p.ViolationProb)
	w = w.key("gates").num(p.Gates)
	w = w.key("chip_yield").num(p.ChipYield)
	w = w.key("required_prm").num(p.RequiredPRM)
	w = w.key("desired_yield").num(p.DesiredYield)
	return w.close('}')
}
