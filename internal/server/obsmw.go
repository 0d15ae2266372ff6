package server

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/obs"
)

// withObs is the request observability middleware: every request runs under
// a fresh obs.Tracer (so evaluation spans, per-route histograms, stage
// histograms and the slowlog all see the same tree), gets a correlation id
// echoed in X-Request-ID, and leaves one structured log line behind.
// ?debug=cost additionally enables cost reporting on the tracer, which is
// what makes query results carry their CostBreakdown — opt-in, so default
// response bodies stay byte-identical and ETag-sound.
//
// The route pattern is looked up here, once per request: it labels the
// metrics and rides on to next as the request's Pattern, which is how
// withJSONFallback tells a routed request from one to answer 404/405.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := "unmatched"
		_, pattern := s.mux.Handler(r)
		if pattern != "" {
			// Strip the method from patterns like "GET /v1/pf".
			if i := strings.IndexByte(pattern, ' '); i >= 0 {
				route = pattern[i+1:]
			} else {
				route = pattern
			}
		}
		reqID := s.nextRequestID()
		tracer := obs.New()
		// A query string is parsed only when there is one: most requests
		// carry none, and parsing builds a map.
		if r.URL.RawQuery != "" && r.URL.Query().Get("debug") == "cost" {
			tracer.EnableCost()
		}
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			// The per-request deadline rides the request context, so every
			// evaluation below it stops at the bound; writeEvalError turns
			// the expiry into a retryable 503.
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		ctx = obs.WithTracer(ctx, tracer)

		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		// The http.request failpoint sits where the edge meets the handler:
		// an error action rejects the request with a retryable 503 (still
		// traced, counted and logged), a delay action stalls it, and a
		// panic action propagates into net/http's connection handler — the
		// chaos harness's misbehaving-middleware stand-in.
		if err := fault.InjectContext(ctx, fault.SiteHTTPRequest); err != nil {
			writeUnavailable(sw, err)
		} else {
			r2 := r.WithContext(ctx)
			r2.Pattern = pattern
			next.ServeHTTP(sw, r2)
		}
		elapsed := time.Since(start)
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		s.metrics.observe(route, code, elapsed.Seconds())

		// One flattened stage list feeds both the stage histograms and the
		// slowlog, so the two surfaces can never disagree about a request.
		// It is flattened into a pooled buffer; the slowlog copies what it
		// keeps.
		buf := stageBufs.Get().(*[]obs.StageDur)
		stages, fingerprint := tracer.AppendStages((*buf)[:0], "fingerprint")
		for _, st := range stages {
			s.metrics.observeStage(st.Name, st.MS/1e3)
		}
		s.slowlog.Observe(elapsed, obs.SlowEntry{
			Time:        time.Now(),
			Route:       route,
			RequestID:   reqID,
			Fingerprint: fingerprint,
			Status:      code,
			Stages:      stages,
		})
		if cap(stages) <= maxPooledStages {
			*buf = stages[:0]
			stageBufs.Put(buf)
		}
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", code),
			slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
			slog.String("fingerprint", fingerprint),
		)
	})
}

// stageBufs pools the stage lists withObs flattens each request's span
// tree into. A list longer than maxPooledStages (an experiment run's
// tree, say) is left to the collector rather than pinned in the pool.
var stageBufs = sync.Pool{New: func() any { return new([]obs.StageDur) }}

const maxPooledStages = 256

// nextRequestID returns a correlation id unique within the process: a
// start-time prefix (distinguishing restarts in interleaved logs) plus a
// sequence number.
func (s *Server) nextRequestID() string {
	return s.ridPrefix + "-" + itoa6(s.reqSeq.Add(1))
}

// itoa6 formats n zero-padded to at least six digits without fmt overhead.
func itoa6(n uint64) string {
	buf := [20]byte{}
	i := len(buf)
	for n > 0 || i > len(buf)-6 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// statusWriter captures the response status for the observability
// middleware. It forwards Flush so streaming handlers keep working behind
// the wrapper, and exposes Unwrap for http.ResponseController to find the
// rest of the underlying writer's optional interfaces.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Flush implements http.Flusher when the underlying writer does; embedding
// alone would hide it, since interface satisfaction sees only the embedded
// http.ResponseWriter methods.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
//
//yield:allow(deadexport) http.ResponseController reaches it through an unexported interface
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
