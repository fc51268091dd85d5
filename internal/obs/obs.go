// Package obs is the toolchain's observability layer: a small,
// dependency-free, concurrency-safe metrics registry (counters, gauges,
// latency histograms) plus lightweight spans (span.go) and exporters
// (export.go) — a human-readable text summary, a metrics JSON document,
// and Chrome trace_event JSON that opens directly in chrome://tracing or
// Perfetto.
//
// The paper's methodology lives on measurement — §3.1's traces and
// profiles are what tell the explorer which candidate to keep — and this
// package applies the same discipline to the toolchain itself: the staged
// evaluation pipeline records per-stage latencies and cache traffic, the
// explorer emits one span per iteration and per scored candidate, the
// simulator exposes its own performance counters, and every future
// performance PR (parallel co-simulation, beam search) reports through the
// same registry.
//
// Everything is nil-safe by design: every method on a nil *Registry,
// *Counter, *Gauge, *Histogram or *Span is a no-op, so instrumented code
// runs with essentially zero overhead when no registry is configured —
// instrumentation never needs to be guarded at the call site.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. Increments are atomic and
// exact: concurrent writers never lose updates.
type Counter struct{ v atomic.Uint64 }

// NewCounter returns a standalone counter (not owned by any registry);
// Registry.Counter is the usual way to obtain one.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value (e.g. the current frontier size).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of the power-of-two latency histogram:
// bucket b holds observations in [2^(b-1), 2^b) nanoseconds, which covers
// 1 ns through ~292 years in 64 buckets.
const histBuckets = 64

// Histogram aggregates latency observations into power-of-two buckets, from
// which quantiles (p50/p95/p99) are estimated by linear interpolation
// within the covering bucket, clamped to the exact observed min and max.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sumNs   float64
	minNs   float64
	maxNs   float64
	buckets [histBuckets]uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(float64(d.Nanoseconds())) }

// ObserveNs records one duration given in nanoseconds.
func (h *Histogram) ObserveNs(ns float64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	b := bucketOf(ns)
	h.mu.Lock()
	if h.count == 0 || ns < h.minNs {
		h.minNs = ns
	}
	if ns > h.maxNs {
		h.maxNs = ns
	}
	h.count++
	h.sumNs += ns
	h.buckets[b]++
	h.mu.Unlock()
}

// bucketOf maps a nanosecond value to its power-of-two bucket.
func bucketOf(ns float64) int {
	if ns < 1 {
		return 0
	}
	v := uint64(ns)
	b := bits.Len64(v) // v in [2^(b-1), 2^b)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// HistogramSnapshot is a consistent read of a histogram, with estimated
// quantiles. All values are nanoseconds.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	SumNs float64 `json:"sum_ns"`
	MinNs float64 `json:"min_ns"`
	MaxNs float64 `json:"max_ns"`
	P50Ns float64 `json:"p50_ns"`
	P95Ns float64 `json:"p95_ns"`
	P99Ns float64 `json:"p99_ns"`
}

// MeanNs returns the average observation.
func (s HistogramSnapshot) MeanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNs / float64(s.Count)
}

// Snapshot returns the histogram's current aggregate state and quantile
// estimates.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, SumNs: h.sumNs, MinNs: h.minNs, MaxNs: h.maxNs}
	s.P50Ns = h.quantileLocked(0.50)
	s.P95Ns = h.quantileLocked(0.95)
	s.P99Ns = h.quantileLocked(0.99)
	return s
}

// quantileLocked estimates the q-quantile (0 < q <= 1) from the buckets:
// find the bucket where the cumulative count crosses rank q·count, then
// interpolate linearly within the bucket's range. Clamped to [min, max],
// so single-observation histograms report that observation exactly.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	cum := 0.0
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, hi := bucketRange(b)
			frac := (rank - cum) / float64(n)
			v := lo + (hi-lo)*frac
			return math.Min(math.Max(v, h.minNs), h.maxNs)
		}
		cum = next
	}
	return h.maxNs
}

// bucketRange returns bucket b's [lo, hi) nanosecond range.
func bucketRange(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (b - 1)), float64(uint64(1) << b)
}

// Registry is a named collection of metrics and finished spans. All methods
// are safe for concurrent use, and all methods on a nil registry are
// no-ops returning nil instruments (whose methods are no-ops in turn), so
// a nil registry disables instrumentation end to end.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	lanes    map[int]string
	spans    []SpanRecord
	epoch    time.Time
	spanID   atomic.Uint64
}

// NewRegistry returns an empty registry. The construction time is the
// epoch all span timestamps are relative to.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		lanes:    map[int]string{},
		epoch:    time.Now(),
	}
}

// record stores one finished span.
func (r *Registry) record(rec SpanRecord) {
	r.mu.Lock()
	r.spans = append(r.spans, rec)
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counters returns a snapshot of every counter value, by name.
func (r *Registry) Counters() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Gauges returns a snapshot of every gauge value, by name.
func (r *Registry) Gauges() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// Histograms returns a snapshot of every histogram, by name.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	hists := make([]*Histogram, len(names))
	for i, name := range names {
		hists[i] = r.hists[name]
	}
	r.mu.Unlock()
	// Snapshot outside r.mu: each histogram has its own lock.
	out := make(map[string]HistogramSnapshot, len(names))
	for i, name := range names {
		out[name] = hists[i].Snapshot()
	}
	return out
}

// sortedNames returns a map's keys in order (export helpers).
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
