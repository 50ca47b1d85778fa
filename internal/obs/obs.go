// Package obs is the repository's zero-dependency observability layer:
// typed counters, gauges and histograms collected in a Registry, scoped
// Span timers for pipeline stages, and three exporters (a JSON artifact,
// Prometheus text exposition format, and a human-readable table — see
// export.go).
//
// The design goal is that instrumentation can stay compiled into the hot
// layers permanently. Every entry point is nil-safe: a nil *Registry
// hands out nil metric handles whose methods do nothing, so an
// uninstrumented run pays one nil check per metric touch and the
// instrumented path allocates nothing in steady state (handles are
// created once and the update paths are atomic or fixed-bucket).
// Registries and all metric handles are safe for concurrent use; the
// sweep engine updates one registry from every worker.
//
// Metric identity is the full name string. Labelled metrics spell their
// labels in the name in Prometheus exposition form — built with Name,
// e.g. Name("experiment_reps_total", "engine", "replay") ==
// `experiment_reps_total{engine="replay"}` — so the exporters need no
// separate label model and the JSON artifact keys stay self-describing.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. The zero value is not usable; build one
// with NewRegistry. A nil *Registry is valid everywhere and records
// nothing.
//
// Lookups are lock-free after a metric's first use (sync.Map read path):
// sweep workers resolving handles by name on every grid point share the
// registry without serialising on a registry-wide mutex, which the mutex
// profile showed as a contention source at high worker counts.
type Registry struct {
	counters sync.Map // string -> *Counter
	gauges   sync.Map // string -> *Gauge
	hists    sync.Map // string -> *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil handle, whose methods do nothing.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil handle, whose methods do nothing.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// Histogram returns the named histogram, creating it on first use with
// the default log-spaced bucket bounds (powers of ten from 1e-9 to 1e9 —
// wide enough for virtual durations, repetition counts, and plan sizes
// alike). A nil registry returns a nil handle, whose methods do nothing.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, newHistogram())
	return v.(*Histogram)
}

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (callers keep counters monotone; Add does not enforce it).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64 metric.
type Gauge struct{ bits atomic.Uint64 }

// Set records v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (negative deltas decrease it), atomically
// with respect to concurrent Add and Set calls. It exists for level-style
// gauges — queue depths, in-use pool slots — that many workers move up and
// down concurrently, where read-modify-write through Set would lose
// updates.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the last recorded value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBounds are the default bucket upper bounds: 10^-9 .. 10^9.
var histBounds = func() []float64 {
	b := make([]float64, 0, 19)
	for e := -9; e <= 9; e++ {
		b = append(b, math.Pow(10, float64(e)))
	}
	return b
}()

// Histogram is a fixed-bucket distribution metric: per-bucket counts plus
// exact count and sum, so exporters can report both the shape and the
// mean. Buckets are allocated at creation; Observe never allocates and
// never locks — every field updates atomically (the sum through a CAS
// loop, like Gauge.Add), so concurrent sweep workers observing into one
// histogram never serialise. The trade is snapshot granularity: a
// snapshot taken mid-Observe can see the bucket without the sum (or vice
// versa) for that one in-flight observation; quiesced reads — every
// exporter use in this repository — are exact.
type Histogram struct {
	bounds  []float64      // upper bounds, ascending; values above the last land in the overflow count
	counts  []atomic.Int64 // len(bounds)+1, last is the overflow bucket
	n       atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram() *Histogram {
	return &Histogram{bounds: histBounds, counts: make([]atomic.Int64, len(histBounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations (0 on a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the mean observation, or 0 before the first one.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Span is a running stage timer started by Registry.Span. End records the
// elapsed wall-clock time. The zero Span (from a nil registry) is valid
// and records nothing.
type Span struct {
	h     *Histogram
	start time.Time
}

// Span starts a timer whose End records the elapsed seconds into the
// histogram named name + "_seconds" (the suffix is spliced before any
// label block, so Span(Name("estimate_fit", "alg", "chain")) feeds
// `estimate_fit_seconds{alg="chain"}`). The histogram's count doubles as
// the number of times the stage ran.
func (r *Registry) Span(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{h: r.Histogram(suffixName(name, "_seconds")), start: time.Now()}
}

// End stops the span and records its duration.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.start).Seconds())
}

// suffixName appends suffix to the base of a possibly-labelled metric
// name: suffixName(`x{a="b"}`, "_seconds") == `x_seconds{a="b"}`.
func suffixName(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// Name builds a labelled metric name in Prometheus exposition form:
// Name("x_total", "engine", "replay") == `x_total{engine="replay"}`.
// Labels are key/value pairs; Name panics on an odd count (a programming
// error, like a bad fmt verb).
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	if len(labels)%2 != 0 {
		panic("obs: Name requires key/value label pairs")
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}
