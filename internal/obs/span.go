package obs

import (
	"sort"
	"time"
)

// Spans are lightweight hierarchical timers. A span is started on a lane
// (an integer "thread" lane in the exported trace; concurrent spans belong
// on distinct lanes so trace viewers render them side by side), children
// inherit their parent's lane, and End records the finished span into the
// registry. Arguments (SetArg) become the args block of the exported
// trace_event, so a candidate span can carry its mutation action, score,
// or error.
//
// A span is owned by the goroutine that started it: Start/Child/SetArg/End
// need no external synchronization for one span, and spans on different
// goroutines never share state except the registry append under its lock.

// SpanRecord is one finished span as stored in the registry. Start is the
// offset from the registry's epoch.
type SpanRecord struct {
	Name   string
	ID     uint64
	Parent uint64 // 0 = root
	Lane   int
	Start  time.Duration
	Dur    time.Duration
	Args   map[string]string
}

// Span is an in-flight span; see the package comment for the ownership
// rules. All methods on a nil span are no-ops.
type Span struct {
	r      *Registry
	name   string
	id     uint64
	parent uint64
	lane   int
	start  time.Time
	args   map[string]string
}

// StartSpan starts a root span on lane 0.
func (r *Registry) StartSpan(name string) *Span { return r.StartSpanLane(name, 0) }

// StartSpanLane starts a root span on an explicit lane.
func (r *Registry) StartSpanLane(name string, lane int) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, name: name, id: r.spanID.Add(1), lane: lane, start: time.Now()}
}

// Child starts a sub-span on the parent's lane.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{r: s.r, name: name, id: s.r.spanID.Add(1), parent: s.id, lane: s.lane, start: time.Now()}
}

// ChildLane starts a sub-span on an explicit lane — for children that run
// concurrently with each other (one lane per worker keeps them side by
// side in trace viewers). Unlike the other span methods it is safe to
// call from a goroutine other than the parent's: it reads only the
// parent's immutable identity.
func (s *Span) ChildLane(name string, lane int) *Span {
	if s == nil {
		return nil
	}
	return &Span{r: s.r, name: name, id: s.r.spanID.Add(1), parent: s.id, lane: lane, start: time.Now()}
}

// SetArg attaches a key/value argument, exported in the trace.
func (s *Span) SetArg(key, value string) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = map[string]string{}
	}
	s.args[key] = value
}

// End finishes the span and records it in the registry.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.r.record(SpanRecord{
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		Lane:   s.lane,
		Start:  s.start.Sub(s.r.epoch),
		Dur:    time.Since(s.start),
		Args:   s.args,
	})
}

// SetLaneName labels a lane for the trace export (rendered as the thread
// name in chrome://tracing / Perfetto). Idempotent.
func (r *Registry) SetLaneName(lane int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.lanes[lane] = name
	r.mu.Unlock()
}

// Spans returns the finished spans in start order.
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
