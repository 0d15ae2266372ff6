package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// attrKV is one key/value span attribute.
type attrKV struct {
	Key   string
	Value any
}

// attrsOf returns a span's attributes in insertion order, each value
// boxed as it was set; nil for a nil span.
func attrsOf(s *Span) []attrKV {
	if s == nil || len(s.attrs) == 0 {
		return nil
	}
	out := make([]attrKV, len(s.attrs))
	for i := range s.attrs {
		out[i] = attrKV{Key: s.attrs[i].key, Value: s.attrs[i].value()}
	}
	return out
}

func TestNilSafety(t *testing.T) {
	ctx := context.Background()
	if tr := TracerFrom(ctx); tr != nil {
		t.Fatalf("tracer on a bare context: %v", tr)
	}
	ctx2, sp := Start(ctx, "anything")
	if sp != nil {
		t.Fatalf("span without tracer: %v", sp)
	}
	if ctx2 != ctx {
		t.Fatal("Start without tracer must not derive a context")
	}
	// Every method must be a no-op on nil.
	sp.SetName("x")
	sp.SetAttr("k", 1)
	sp.End()
	if sp.Name() != "" || sp.Duration() != 0 || attrsOf(sp) != nil || sp.Children() != nil {
		t.Fatal("nil span accessors must return zero values")
	}
	if _, ok := sp.AttrValue("k"); ok {
		t.Fatal("nil span AttrValue must miss")
	}
	if sp.MC() != nil {
		t.Fatal("nil span MC must be nil")
	}
	var tr *Tracer
	tr.EnableCost()
	if tr.CostEnabled() {
		t.Fatal("nil tracer cost")
	}
	if tr.Roots() != nil {
		t.Fatal("nil tracer roots")
	}
}

func TestSpanTree(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)

	rootCtx, root := Start(ctx, "query.evaluate")
	// A child started from the root's context nests...
	_, sweep := Start(rootCtx, "sweep")
	sweep.SetName("sweep.cold")
	sweep.SetAttr("sweeps", uint64(3))
	sweep.End()
	// ...and a sibling started from the same context nests beside it.
	_, mc := Start(rootCtx, "mc.run")
	mc.SetAttr("method", "tilted")
	mc.SetAttr("method", "plain") // replacement, not duplication
	mc.End()
	root.End()
	root.End() // second End is a no-op

	roots := tr.Roots()
	if len(roots) != 1 || roots[0] != root {
		t.Fatalf("roots = %v", roots)
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "sweep.cold" || kids[1].Name() != "mc.run" {
		t.Fatalf("children = %v, %v", kids, len(kids))
	}
	if v, ok := kids[0].AttrValue("sweeps"); !ok || v.(uint64) != 3 {
		t.Fatalf("sweeps attr = %v %v", v, ok)
	}
	if v, _ := kids[1].AttrValue("method"); v != "plain" {
		t.Fatalf("method attr = %v", v)
	}
	if got := len(attrsOf(kids[1])); got != 1 {
		t.Fatalf("SetAttr with same key must replace; have %d attrs", got)
	}
	if root.Duration() <= 0 {
		t.Fatal("ended root must have a positive duration")
	}
}

func TestConcurrentRootSpans(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := Start(ctx, "query.evaluate")
			sp.SetAttr("i", 1)
			sp.End()
		}()
	}
	wg.Wait()
	if got := len(tr.Roots()); got != 32 {
		t.Fatalf("roots = %d, want 32", got)
	}
}

func TestCostFlag(t *testing.T) {
	tr := New()
	if tr.CostEnabled() {
		t.Fatal("cost on by default")
	}
	tr.EnableCost()
	if !tr.CostEnabled() {
		t.Fatal("cost not enabled")
	}
}

func TestCountersFoldIntoAttrs(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "mc.run")
	c := sp.MC()
	if c == nil {
		t.Fatal("nil counters on a live span")
	}
	if sp.MC() != c {
		t.Fatal("MC must be idempotent")
	}
	c.Rounds.Add(4096)
	c.Batches.Add(64)
	sp.End()
	if v, _ := sp.AttrValue("rounds"); v.(uint64) != 4096 {
		t.Fatalf("rounds attr = %v", v)
	}
	if v, _ := sp.AttrValue("mc_batches"); v.(uint64) != 64 {
		t.Fatalf("mc_batches attr = %v", v)
	}
	if _, ok := sp.AttrValue("scratch_allocs"); ok {
		t.Fatal("zero counters must not produce attrs")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le is inclusive: 0.01 lands in the 0.01 bucket.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, s.Cumulative[i], w, s.Cumulative)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-2.565) > 1e-12 {
		t.Fatalf("sum = %g", s.Sum)
	}
}

func TestHistogramBoundsSanitized(t *testing.T) {
	h := NewHistogram(1, 0.5, 1, math.Inf(1), math.NaN())
	s := h.Snapshot()
	if len(s.Bounds) != 2 || s.Bounds[0] != 0.5 || s.Bounds[1] != 1 {
		t.Fatalf("bounds = %v", s.Bounds)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets()...)
	const goroutines, each = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(g*each+i) * 1e-6)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*each {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*each)
	}
	if s.Cumulative[len(s.Cumulative)-1] != s.Count {
		t.Fatalf("+Inf bucket %d != count %d", s.Cumulative[len(s.Cumulative)-1], s.Count)
	}
	for i := 1; i < len(s.Cumulative); i++ {
		if s.Cumulative[i] < s.Cumulative[i-1] {
			t.Fatalf("non-monotone cumulative buckets: %v", s.Cumulative)
		}
	}
	wantSum := 0.0
	for i := 0; i < goroutines*each; i++ {
		wantSum += float64(i) * 1e-6
	}
	if math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestSlowLogThresholdAndRing(t *testing.T) {
	l := NewSlowLog(3, 10*time.Millisecond)
	l.Observe(5*time.Millisecond, SlowEntry{Route: "fast"})
	for i := 0; i < 5; i++ {
		l.Observe(time.Duration(20+i)*time.Millisecond, SlowEntry{Route: "slow", Status: 200 + i})
	}
	entries := l.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want ring capacity 3", len(entries))
	}
	// Newest first: statuses 204, 203, 202.
	for i, want := range []int{204, 203, 202} {
		if entries[i].Status != want {
			t.Fatalf("entry %d status = %d, want %d", i, entries[i].Status, want)
		}
	}
	if entries[0].DurationMS != 24 {
		t.Fatalf("duration = %g ms", entries[0].DurationMS)
	}
	observed, recorded := l.Counts()
	if observed != 6 || recorded != 5 {
		t.Fatalf("counts = %d/%d", observed, recorded)
	}
}

func TestSlowLogRecordAll(t *testing.T) {
	l := NewSlowLog(0, -1)
	if l.Threshold() != 0 {
		t.Fatalf("threshold = %v", l.Threshold())
	}
	if l.Capacity() != DefaultSlowLogEntries {
		t.Fatalf("capacity = %d", l.Capacity())
	}
	l.Observe(0, SlowEntry{Route: "r"})
	if got := l.Entries(); len(got) != 1 || got[0].Route != "r" {
		t.Fatalf("entries = %v", got)
	}
	var nilLog *SlowLog
	nilLog.Observe(time.Second, SlowEntry{})
	if nilLog.Entries() != nil {
		t.Fatal("nil slowlog entries")
	}
}

func TestStagesFlatten(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	rootCtx, root := Start(ctx, "query.evaluate")
	_, sweep := Start(rootCtx, "sweep.cold")
	sweep.End()
	_, mc := Start(rootCtx, "mc.run")
	mc.End()
	root.End()
	stages := Stages(root)
	if len(stages) != 3 || stages[0].Name != "query.evaluate" || stages[1].Name != "sweep.cold" || stages[2].Name != "mc.run" {
		t.Fatalf("stages = %+v", stages)
	}
	if Stages(nil) != nil {
		t.Fatal("nil root stages")
	}
}

func TestWriteTraceEvents(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	rootCtx, root := Start(ctx, "query.evaluate")
	_, mc := Start(rootCtx, "mc.run")
	mc.SetAttr("rounds", uint64(64))
	mc.End()
	root.End()
	_, second := Start(ctx, "query.evaluate")
	second.End()

	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid trace JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 3 {
		t.Fatalf("events = %d", len(out.TraceEvents))
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.TID < 1 {
			t.Fatalf("malformed event %+v", ev)
		}
	}
	if out.TraceEvents[1].Name != "mc.run" || out.TraceEvents[1].Args["rounds"].(float64) != 64 {
		t.Fatalf("mc event = %+v", out.TraceEvents[1])
	}
	// The two roots must land on distinct tracks.
	if out.TraceEvents[0].TID == out.TraceEvents[2].TID {
		t.Fatal("distinct roots share a tid")
	}

	// An empty tracer still writes a valid document.
	buf.Reset()
	if err := New().WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil || len(out.TraceEvents) != 0 {
		t.Fatalf("empty trace: %v %s", err, buf.String())
	}
}

func TestStartLeaf(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	rootCtx, root := Start(ctx, "query.evaluate")
	leaf := StartLeaf(rootCtx, "mc.run")
	leaf.SetAttr("rounds", uint64(100))
	leaf.End()
	root.End()

	kids := root.Children()
	if len(kids) != 1 || kids[0] != leaf {
		t.Fatalf("leaf must nest under the parent span: %v", kids)
	}
	if v, ok := leaf.AttrValue("rounds"); !ok || v.(uint64) != 100 {
		t.Fatalf("rounds attr = %v %v", v, ok)
	}
	// Without a tracer StartLeaf is a nil no-op, like Start.
	if sp := StartLeaf(context.Background(), "x"); sp != nil {
		t.Fatalf("StartLeaf without tracer: %v", sp)
	}
}

func TestDetach(t *testing.T) {
	tr := New()
	type extraKey struct{}
	ctx := context.WithValue(WithTracer(context.Background(), tr), extraKey{}, "kept")
	rootCtx, root := Start(ctx, "submit")
	root.End()

	det := Detach(rootCtx)
	if TracerFrom(det) != nil {
		t.Fatal("detached context must carry no tracer")
	}
	if det.Value(extraKey{}) != "kept" {
		t.Fatal("Detach must preserve non-tracer values")
	}
	// Spans started under a detached context vanish instead of mutating
	// the original tracer's tree.
	_, orphan := Start(det, "job.run")
	if orphan != nil {
		t.Fatalf("span under detached context: %v", orphan)
	}
	if got := len(tr.Roots()); got != 1 {
		t.Fatalf("detached work leaked into the span tree: %d roots", got)
	}
	// Detaching an untraced context is the identity.
	bare := context.Background()
	if Detach(bare) != bare {
		t.Fatal("Detach of an untraced context must be a no-op")
	}
}

// TestTypedAttrs pins the typed setters: values are stored unboxed and
// read back, by AttrValue, Attrs and the trace export, as the type they
// were set with; SetAttr files the same types the same way, replaces
// across types, and keeps any other type boxed.
func TestTypedAttrs(t *testing.T) {
	tr := New()
	_, sp := Start(WithTracer(context.Background(), tr), "query.evaluate")
	sp.SetStr("kind", "wmin")
	sp.SetInt("candidates", -4)
	sp.SetUint("sweeps", math.MaxUint64)
	sp.SetFloat("tilt_theta", 0.1)
	sp.SetBool("model_cached", true)
	sp.SetAttr("fingerprint", "qs1-x")
	sp.SetAttr("level", int32(7))
	sp.SetAttr("candidates", "replaced")
	sp.End()
	want := []attrKV{
		{"kind", "wmin"},
		{"candidates", "replaced"},
		{"sweeps", uint64(math.MaxUint64)},
		{"tilt_theta", 0.1},
		{"model_cached", true},
		{"fingerprint", "qs1-x"},
		{"level", int32(7)},
	}
	got := attrsOf(sp)
	if len(got) != len(want) {
		t.Fatalf("attrs = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attr %d = %#v, want %#v", i, got[i], want[i])
		}
		if v, ok := sp.AttrValue(want[i].Key); !ok || v != want[i].Value {
			t.Fatalf("AttrValue(%s) = %#v %v", want[i].Key, v, ok)
		}
	}
	if _, ok := sp.AttrValue("absent"); ok {
		t.Fatal("absent attr found")
	}
}

// TestOneSpecTraceAllocs pins the tracer's allocation budget for the
// shape of a one-spec query: a tracer, its context, a root span with two
// string attributes, a leaf child with a bool, and the stage flattening
// into a reused buffer cost two allocations, the Tracer (whose slab holds
// both spans) and the WithTracer context node.
func TestOneSpecTraceAllocs(t *testing.T) {
	buf := make([]StageDur, 0, 8)
	fp := ""
	allocs := testing.AllocsPerRun(100, func() {
		tr := New()
		ctx, root := Start(WithTracer(context.Background(), tr), "query.evaluate")
		root.SetStr("kind", "pf")
		root.SetStr("fingerprint", "qs1-x")
		leaf := StartLeaf(ctx, "sweep")
		leaf.SetBool("model_cached", true)
		leaf.End()
		root.End()
		buf, fp = tr.AppendStages(buf[:0], "fingerprint")
	})
	if allocs != 2 {
		t.Fatalf("one-spec trace allocates %v times, want 2", allocs)
	}
	if len(buf) != 2 || buf[0].Name != "query.evaluate" || buf[1].Name != "sweep" || fp != "qs1-x" {
		t.Fatalf("stages %+v, fingerprint %q", buf, fp)
	}
}

// TestSpansOutliveTheSlab holds spans across slab chunks: a span taken
// from the tracer's inline slab and one from a heap chunk keep their
// names, attributes and place in the tree however many spans follow.
func TestSpansOutliveTheSlab(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	var held []*Span
	for i := 0; i < 3*spanChunk; i++ {
		rootCtx, root := Start(ctx, "query.evaluate")
		root.SetInt("i", i)
		StartLeaf(rootCtx, "sweep").End()
		root.End()
		held = append(held, root)
	}
	roots := tr.Roots()
	if len(roots) != len(held) {
		t.Fatalf("roots = %d, want %d", len(roots), len(held))
	}
	for i, sp := range held {
		if v, _ := sp.AttrValue("i"); v != i || roots[i] != sp || sp.Name() != "query.evaluate" {
			t.Fatalf("span %d: attr %v, name %q", i, v, sp.Name())
		}
		if kids := sp.Children(); len(kids) != 1 || kids[0].Name() != "sweep" {
			t.Fatalf("span %d children %v", i, kids)
		}
	}
}
