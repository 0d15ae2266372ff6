// Package obs is the stack's zero-dependency observability layer: a
// context-carried tracer producing nested spans from the HTTP edge down to
// the Monte Carlo round loop, per-worker counters for the zero-allocation
// hot paths, fixed-bucket latency histograms for the Prometheus endpoint,
// and a slow-query ring buffer.
//
// # Ownership of the wall clock
//
// The compute packages (query, montecarlo, rowyield, renewal, ...) are held
// to determinism by the yieldvet analyzer: time.Now is banned there because
// wall-clock reads leaking into results would break the canonical
// fingerprint / ETag identity. obs owns the clock the same way internal/rng
// owns randomness — all timing happens inside this package, and compute
// code only calls Start/End, which touch nothing but the span tree.
//
// # Zero perturbation
//
// Tracing must never change results. Span creation is nil-safe end to end:
// with no Tracer on the context every obs call is a no-op on nil, so
// untraced paths pay one context lookup and nothing else. Counters are
// accumulated per worker and flushed once per worker lifetime, so the
// //yield:noalloc round loops see no atomic traffic and no allocation.
// Estimates are bit-identical with tracing on or off; the CI obs-overhead
// ratio gate (BENCH_BASELINE.json) holds the instrumented round loop to
// ≤ 1.05× the uninstrumented one.
package obs

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// tracerSlabSpans is how many spans a Tracer holds inline: enough for a
// one-spec query's evaluate and sweep spans, so the common request takes
// its spans from the tracer's own allocation. Further spans come from
// spanChunk-sized heap chunks.
const (
	tracerSlabSpans = 2
	spanChunk       = 8
)

// Tracer collects a forest of spans for one traced operation (typically one
// HTTP request or one CLI invocation). A Tracer is safe for concurrent use:
// sweep workers evaluating specs in parallel may all start root spans on
// the same tracer.
//
// Spans live in a slab: the first tracerSlabSpans inside the Tracer
// itself, the rest in chunks of spanChunk. A span is never reused, so a
// *Span stays valid, and keeps its contents, for as long as anything
// holds it. The tree is linked through the spans themselves (first child,
// next sibling), so starting a span appends to no slice.
type Tracer struct {
	start time.Time

	mu sync.Mutex
	// first and last are the root spans in start order, linked through
	// Span.next.
	first, last *Span
	slab        [tracerSlabSpans]Span
	used        int    // slab spans handed out
	chunk       []Span // unused spans of the current heap chunk

	cost atomic.Bool
}

// New returns an empty tracer whose trace timestamps are relative to now.
func New() *Tracer {
	return &Tracer{start: time.Now()}
}

// EnableCost opts the tracer into cost reporting: query evaluations attach
// a CostBreakdown to their results. Cost is separate from tracing itself so
// a server can trace every request (feeding histograms and the slowlog)
// while timing fields stay out of the default, cacheable response bodies.
// Nil-safe.
func (t *Tracer) EnableCost() {
	if t != nil {
		t.cost.Store(true)
	}
}

// CostEnabled reports whether EnableCost was called. Nil-safe (false).
func (t *Tracer) CostEnabled() bool {
	return t != nil && t.cost.Load()
}

// Roots returns the tracer's root spans in start order. Safe to call
// concurrently, but span contents should only be read after the spans
// have ended.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return appendList(nil, t.first)
}

// appendList appends a sibling list to dst. Caller holds the tracer's mu.
func appendList(dst []*Span, s *Span) []*Span {
	for ; s != nil; s = s.next {
		dst = append(dst, s)
	}
	return dst
}

// open takes a span from the slab, initializes it under the context's
// current span (or as a root) and links it into the tree.
func (t *Tracer) open(ctx context.Context, name string) *Span {
	parent, _ := ctx.Value(spanKey).(*Span)
	now := time.Now()
	t.mu.Lock()
	var sp *Span
	if t.used < len(t.slab) {
		sp = &t.slab[t.used]
		t.used++
	} else {
		if len(t.chunk) == 0 {
			t.chunk = make([]Span, spanChunk)
		}
		sp = &t.chunk[0]
		t.chunk = t.chunk[1:]
	}
	sp.tracer, sp.name, sp.start = t, name, now
	sp.attrs = sp.attrBuf[:0]
	sp.ctx = spanCtx{Context: ctx, span: sp}
	if parent != nil {
		if parent.lastChild == nil {
			parent.firstChild = sp
		} else {
			parent.lastChild.next = sp
		}
		parent.lastChild = sp
	} else {
		if t.last == nil {
			t.first = sp
		} else {
			t.last.next = sp
		}
		t.last = sp
	}
	t.mu.Unlock()
	return sp
}

// ctxKey is the context key space of this package.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// spanCtx is the context node a span carries: it answers the span and
// its tracer and defers everything else to the context the span was
// started under. Start hands out a pointer to it, so deriving the span's
// context allocates nothing beyond the span's slab slot.
type spanCtx struct {
	context.Context
	span *Span
}

// Value implements context.Context.
func (c *spanCtx) Value(key any) any {
	if k, ok := key.(ctxKey); ok {
		switch k {
		case spanKey:
			return c.span
		case tracerKey:
			return c.span.tracer
		}
	}
	return c.Context.Value(key)
}

// WithTracer attaches a tracer to the context; subsequent Start calls under
// this context record spans on it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, nil when the context is untraced.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Start opens a span named name under the context's current span (or as a
// root when there is none) and returns a context carrying the new span as
// current. With no tracer on the context it returns (ctx, nil) without
// allocating; the nil *Span accepts every method as a no-op, so call sites
// need no conditionals.
//
// Callers that want sibling spans rather than nesting simply keep using
// their original context: Start never mutates ctx, it derives.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := t.open(ctx, name)
	return &sp.ctx, sp
}

// StartLeaf opens a span exactly like Start but returns only the span: the
// deliberate-leaf form for instrumenting a stretch of work that starts no
// spans of its own (an MC round loop, a sweep kernel). Using StartLeaf
// instead of discarding Start's derived context makes the intent
// machine-checkable — the spanbalance analyzer flags a discarded derived
// context, because under an accidentally-dropped context every nested
// Start silently becomes a sibling. Nil-safe like Start.
func StartLeaf(ctx context.Context, name string) *Span {
	t := TracerFrom(ctx)
	if t == nil {
		return nil
	}
	return t.open(ctx, name)
}

// Detach returns a context carrying no tracer and no current span, for
// handing to work that outlives the traced operation — e.g. async jobs
// that keep running after their submitting request responds. Without
// detachment, spans started by the orphaned work would keep mutating a
// span tree the request handler is already reading (a data race), since
// context.WithoutCancel severs cancellation but keeps values. Values
// other than the tracer state are preserved.
func Detach(ctx context.Context) context.Context {
	if TracerFrom(ctx) == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, tracerKey, (*Tracer)(nil))
	return context.WithValue(ctx, spanKey, (*Span)(nil))
}

// Attr is one key/value span attribute, as Attrs reports it.
type Attr struct {
	// Key names the attribute ("rounds", "tilt_theta", ...).
	Key string
	// Value holds the attribute; keep it a JSON-friendly scalar.
	Value any
}

// attrKind tags the type an attribute was set with.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindUint
	kindFloat
	kindBool
	kindAny
)

// attr is one attribute as a span stores it: typed and unboxed, so
// setting a string or a number allocates nothing. A value of any other
// type stays boxed in val.
type attr struct {
	key  string
	kind attrKind
	str  string // kindString
	num  uint64 // kindInt, kindUint, kindFloat (bits), kindBool (0 or 1)
	val  any    // kindAny
}

// value boxes the attribute back to the type it was set with.
func (a *attr) value() any {
	switch a.kind {
	case kindString:
		return a.str
	case kindInt:
		return int(int64(a.num))
	case kindUint:
		return a.num
	case kindFloat:
		return math.Float64frombits(a.num)
	case kindBool:
		return a.num != 0
	}
	return a.val
}

// spanAttrs is how many attributes a span holds inline; more spill to
// the heap.
const spanAttrs = 2

// Span is one timed operation in a trace tree. All methods are nil-safe, so
// instrumented code never branches on whether tracing is active. A span is
// mutated by the goroutine that created it; read it after End.
type Span struct {
	ctx    spanCtx
	tracer *Tracer
	name   string
	start  time.Time
	dur    time.Duration
	ended  bool
	// attrs is the attributes in insertion order, backed by attrBuf until
	// it outgrows it.
	attrs   []attr
	attrBuf [spanAttrs]attr
	// firstChild and lastChild are the child list; next links a span to
	// its next sibling (or next root). All three are guarded by the
	// tracer's mu.
	firstChild, lastChild, next *Span

	mcOnce sync.Once
	mc     *MCCounters
}

// SetName renames the span — used to refine a generic stage name once its
// outcome is known (e.g. "sweep" → "sweep.cache_hit"). Nil-safe.
func (s *Span) SetName(name string) {
	if s != nil {
		s.name = name
	}
}

// set records a, replacing any earlier value for its key.
func (s *Span) set(a attr) {
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			s.attrs[i] = a
			return
		}
	}
	s.attrs = append(s.attrs, a)
}

// lookup returns the attribute stored under key, nil when there is none.
func (s *Span) lookup(key string) *attr {
	for i := range s.attrs {
		if s.attrs[i].key == key {
			return &s.attrs[i]
		}
	}
	return nil
}

// SetStr records a string attribute, replacing any earlier value for the
// key. Unlike SetAttr it boxes nothing. Nil-safe.
func (s *Span) SetStr(key, value string) {
	if s != nil {
		s.set(attr{key: key, kind: kindString, str: value})
	}
}

// SetInt records an int attribute, replacing any earlier value for the
// key. Nil-safe.
func (s *Span) SetInt(key string, value int) {
	if s != nil {
		s.set(attr{key: key, kind: kindInt, num: uint64(int64(value))})
	}
}

// SetUint records a uint64 attribute, replacing any earlier value for the
// key. Nil-safe.
func (s *Span) SetUint(key string, value uint64) {
	if s != nil {
		s.set(attr{key: key, kind: kindUint, num: value})
	}
}

// SetFloat records a float64 attribute, replacing any earlier value for
// the key. Nil-safe.
func (s *Span) SetFloat(key string, value float64) {
	if s != nil {
		s.set(attr{key: key, kind: kindFloat, num: math.Float64bits(value)})
	}
}

// SetBool records a bool attribute, replacing any earlier value for the
// key. Nil-safe.
func (s *Span) SetBool(key string, value bool) {
	if s != nil {
		a := attr{key: key, kind: kindBool}
		if value {
			a.num = 1
		}
		s.set(a)
	}
}

// SetAttr records an attribute of any type, replacing any earlier value
// for the key: a string, int, uint64, float64 or bool is stored as the
// typed setters store it, anything else stays boxed. The typed setters
// spare the caller's conversion to any. Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	switch v := value.(type) {
	case string:
		s.SetStr(key, v)
	case int:
		s.SetInt(key, v)
	case uint64:
		s.SetUint(key, v)
	case float64:
		s.SetFloat(key, v)
	case bool:
		s.SetBool(key, v)
	default:
		s.set(attr{key: key, kind: kindAny, val: value})
	}
}

// MC returns the span's Monte Carlo counter block, allocating it on first
// use. Hand it to montecarlo.Options.Counters; End folds non-zero counters
// into span attributes. Returns nil on a nil span, which the engine treats
// as "don't count".
func (s *Span) MC() *MCCounters {
	if s == nil {
		return nil
	}
	s.mcOnce.Do(func() { s.mc = &MCCounters{} })
	return s.mc
}

// End stamps the span's duration and folds any counters into attributes.
// Subsequent Ends are no-ops; nil-safe.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if s.mc != nil {
		if v := s.mc.Rounds.Load(); v > 0 {
			if s.lookup("rounds") == nil {
				s.SetUint("rounds", v)
			}
		}
		if v := s.mc.Batches.Load(); v > 0 {
			s.SetUint("mc_batches", v)
		}
		if v := s.mc.ScratchAllocs.Load(); v > 0 {
			s.SetUint("scratch_allocs", v)
		}
	}
}

// Name returns the span's (possibly refined) name. Nil-safe ("").
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's duration (zero before End). Nil-safe.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Attrs returns the span's attributes in insertion order, each value
// boxed as it was set. Nil-safe.
func (s *Span) Attrs() []Attr {
	if s == nil || len(s.attrs) == 0 {
		return nil
	}
	out := make([]Attr, len(s.attrs))
	for i := range s.attrs {
		out[i] = Attr{Key: s.attrs[i].key, Value: s.attrs[i].value()}
	}
	return out
}

// AttrValue looks up one attribute by key, boxed as it was set. Nil-safe
// (not found).
func (s *Span) AttrValue(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	if a := s.lookup(key); a != nil {
		return a.value(), true
	}
	return nil, false
}

// Children returns the span's child spans in start order. Read after the
// subtree has ended. Nil-safe.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return appendList(nil, s.firstChild)
}
