package obs

import (
	"encoding/json"
	"io"
	"time"
)

// traceEvent is one Chrome trace_event entry: a complete ("X") event with
// microsecond timestamp and duration. The format is the lowest common
// denominator of trace viewers — chrome://tracing, Perfetto and speedscope
// all open it — which keeps the exporter dependency-free.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTraceEvents renders the tracer's span forest in Chrome trace_event
// JSON format (the {"traceEvents": [...]} object form). Each root span gets
// its own tid so concurrent sweep evaluations lay out as parallel tracks;
// span attributes become event args. Call after the traced work is done.
func (t *Tracer) WriteTraceEvents(w io.Writer) error {
	var events []traceEvent
	if t != nil {
		t.mu.Lock()
		tid := 1
		for root := t.first; root != nil; root = root.next {
			events = appendEvents(events, root, t.start, tid)
			tid++
		}
		t.mu.Unlock()
	}
	if events == nil {
		events = []traceEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(map[string]any{"traceEvents": events})
}

// appendEvents walks one span subtree depth-first onto the event list.
// Caller holds the tracer's mu.
func appendEvents(events []traceEvent, s *Span, origin time.Time, tid int) []traceEvent {
	ev := traceEvent{
		Name: s.name,
		Ph:   "X",
		TS:   float64(s.start.Sub(origin)) / float64(time.Microsecond),
		Dur:  float64(s.dur) / float64(time.Microsecond),
		PID:  1,
		TID:  tid,
	}
	if len(s.attrs) > 0 {
		ev.Args = make(map[string]any, len(s.attrs))
		for i := range s.attrs {
			ev.Args[s.attrs[i].key] = s.attrs[i].value()
		}
	}
	events = append(events, ev)
	for c := s.firstChild; c != nil; c = c.next {
		events = appendEvents(events, c, origin, tid)
	}
	return events
}
