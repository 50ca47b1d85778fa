package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: Parent is the
// span that caused it (0 for a root) and Op the operation every span of
// one benchmark operation shares.
type span struct {
	ID, Parent, Op int64
	Name, Layer    string
	Start, End     time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextID int64
	nextOp int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// record stores a finished span and returns its id.
func (t *tracer) record(op, parent int64, layer, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{
		ID: t.nextID, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
	return t.nextID
}

// openSpan is a span whose end has not been recorded yet. Its id is
// reserved at start so children can name it as their parent.
type openSpan struct {
	t           *tracer
	id, op, par int64
	layer, name string
	start       time.Time
}

// start opens a span; end records it.
func (t *tracer) start(op, parent int64, layer, name string) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &openSpan{t: t, id: id, op: op, par: parent, layer: layer, name: name, start: time.Now()}
}

// ID is the span's id (0 for a nil span), for use as a child's parent.
func (s *openSpan) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

func (s *openSpan) end() {
	if s == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans = append(s.t.spans, span{
		ID: s.id, Parent: s.par, Op: s.op, Name: s.name, Layer: s.layer,
		Start: s.start.Sub(s.t.epoch), End: end.Sub(s.t.epoch),
	})
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its child spans (overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// traceEvent is one Chrome trace-event "complete" event. Each benchmark
// operation gets its own track (tid = operation id), and args repeat the
// span's identity so the file reads as plain JSON without a viewer.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	PID  int       `json:"pid"`
	TID  int64     `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Op      int64   `json:"op"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// writeChromeTrace writes spans as a Chrome trace-event JSON document
// (loadable in chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span) error {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms", TraceEvents: make([]traceEvent, 0, len(spans))}
	for _, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 1, TID: s.Op,
			Args: traceArgs{ID: s.ID, Parent: s.Parent, Op: s.Op, StartUS: us(s.Start), EndUS: us(s.End)},
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
