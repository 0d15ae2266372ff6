package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// writeJSON answers with v as JSON indented by two spaces per level, plus a
// trailing newline: the bytes an encoding/json Encoder with
// SetIndent("", "  ") writes, as one buffer. A /v2/query response is
// appended indented in one pass without reflection (appendQueryResponse);
// any other body, and a response the appenders decline, is encoded once,
// compactly, by encoding/json and indented in one pass (appendIndent).
//
// Encoding comes before the status line, so a value encoding/json cannot
// encode (a NaN or ±Inf float) answers the 500 internal envelope instead
// of an empty body under the intended status; the validator and location
// headers set for the intended response are dropped with it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b := edgeBuffers.Get().(*edgeBuffer)
	defer b.release()
	if !b.appendBody(v) {
		if err := b.enc.Encode(v); err != nil {
			h := w.Header()
			h.Del("ETag")
			h.Del("Cache-Control")
			h.Del("Location")
			status = http.StatusInternalServerError
			b.compact.Reset()
			// The envelope holds only strings, so it always encodes.
			_ = b.enc.Encode(ErrorJSON{Error: ErrorBodyJSON{
				Code: errorCode(status), Message: "encoding response: " + err.Error(),
			}})
		}
		b.out = appendIndent(b.out[:0], b.compact.Bytes())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b.out)
}

// edgeBuffer is writeJSON's reusable scratch: the compact encoding an
// Encoder writes (json.Marshal's bytes plus a newline) in compact, and the
// indented body in out.
type edgeBuffer struct {
	compact bytes.Buffer
	enc     *json.Encoder
	out     []byte
}

// appendBody writes v's indented encoding and the Encoder's newline into
// b.out when v is a body the wire appenders cover, reporting false
// otherwise.
func (b *edgeBuffer) appendBody(v any) bool {
	resp, ok := v.(QueryResponseJSON)
	if !ok {
		return false
	}
	out, ok := appendQueryResponse(b.out[:0], &resp)
	if !ok {
		return false
	}
	b.out = append(out, '\n')
	return true
}

// appendQueryResponse appends r's json.Marshal encoding to dst, indented by
// two spaces per level as appendIndent lays it out, reporting false where a
// result appender declines or the fingerprint would need escaping
// (fingerprints are plain hex, so that never happens in practice).
func appendQueryResponse(dst []byte, r *QueryResponseJSON) ([]byte, bool) {
	for i := 0; i < len(r.Fingerprint); i++ {
		if c := r.Fingerprint[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return dst, false
		}
	}
	b := append(append(append(dst, "{\n  \"fingerprint\": \""...), r.Fingerprint...), "\",\n  \"count\": "...)
	b = append(strconv.AppendInt(b, int64(r.Count), 10), ",\n  \"results\": "...)
	switch {
	case r.Results == nil:
		return append(b, "null\n}"...), true
	case len(r.Results) == 0:
		return append(b, "[]\n}"...), true
	}
	b = append(b, '[')
	for i := range r.Results {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = r.Results[i].AppendIndentJSON(append(b, "\n    "...), 2); !ok {
			return dst, false
		}
	}
	return append(b, "\n  ]\n}"...), true
}

// maxPooledEdgeBuffer bounds the scratch a pooled edgeBuffer keeps: a large
// job body is encoded in fresh buffers rather than pinned in the pool.
const maxPooledEdgeBuffer = 1 << 20

var edgeBuffers = sync.Pool{New: func() any {
	b := new(edgeBuffer)
	b.enc = json.NewEncoder(&b.compact)
	return b
}}

func (b *edgeBuffer) release() {
	if b.compact.Cap() > maxPooledEdgeBuffer || cap(b.out) > maxPooledEdgeBuffer {
		return
	}
	b.compact.Reset()
	edgeBuffers.Put(b)
}

// appendIndent appends src — compact JSON as encoding/json emits it — to
// dst, indented by two spaces per level: the bytes of json.Indent(dst, src,
// "", "  "). Compact input holds no insignificant whitespace, so one pass
// only has to skip strings and act on the six structural bytes; the runs
// between them are copied whole. Empty objects and arrays stay "{}" and
// "[]", and bytes after the top-level value (the Encoder's newline) are
// copied as they are.
func appendIndent(dst, src []byte) []byte {
	depth, run := 0, 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			i = stringEnd(src, i)
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				i++
				continue
			}
			depth++
			dst = newline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case '}', ']':
			depth--
			dst = append(newline(append(dst, src[run:i]...), depth), c)
			run = i + 1
		case ',':
			dst = newline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case ':':
			dst = append(append(dst, src[run:i+1]...), ' ')
			run = i + 1
		}
	}
	return append(dst, src[run:]...)
}

// stringEnd returns the index of the quote closing the string whose
// opening quote is src[open] (len(src)-1 for an unterminated string).
func stringEnd(src []byte, open int) int {
	i := open
	for {
		j := bytes.IndexByte(src[i+1:], '"')
		if j < 0 {
			return len(src) - 1
		}
		i += 1 + j
		// The quote is escaped iff an odd number of backslashes precede it;
		// the opening quote bounds the count.
		k := i - 1
		for src[k] == '\\' {
			k--
		}
		if (i-1-k)%2 == 0 {
			return i
		}
	}
}

// newline appends a newline and depth levels of indentation.
func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
