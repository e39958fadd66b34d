// Package obs is the observability layer of the solver stack: hierarchical
// span tracing with pluggable sinks, a lightweight metrics registry with
// expvar and Prometheus exposition, and profiling helpers for the CLIs.
//
// The design goal is zero hot-path cost when observability is off. Every
// method on *Tracer and *Span is nil-safe, and a Tracer with no sinks and no
// metrics registry is "disabled": StartSpan returns a nil *Span, all further
// calls on it are no-ops, and no allocation happens per span. Solvers can
// therefore instrument unconditionally.
//
// Spans travel through context.Context, reusing the cancellation plumbing
// the solve path already has: the top-level solver puts its root span into
// the context, and every layer below (preprocessing, component dispatch,
// set-cover engines, the simplex solver, the max-flow engines) opens
// children with StartChild. A span records a name, a start time, a parent,
// and typed attributes; sinks receive one Event per completed span.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Attr is one typed span attribute.
type Attr struct {
	// Key names the attribute.
	Key string
	// Value holds the attribute value: string, int64, float64, bool,
	// time.Duration, error, or any JSON-marshalable value via Any.
	Value any
}

// Str returns a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int returns an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: int64(value)} }

// I64 returns an int64 attribute.
func I64(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// F64 returns a float64 attribute.
func F64(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Bool returns a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }

// Dur returns a duration attribute.
func Dur(key string, value time.Duration) Attr { return Attr{Key: key, Value: value} }

// Any returns an attribute holding an arbitrary value. Sinks marshal it
// as-is; consumers that understand the concrete type can type-assert it.
func Any(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is the record of one completed span, delivered to every sink.
// The Attrs slice is only valid for the duration of the Sink call; sinks
// that retain attributes must copy them.
type Event struct {
	// Name is the span name (e.g. "solve", "prep", "maxflow").
	Name string
	// ID is the span's process-unique identifier.
	ID uint64
	// Parent is the parent span's ID, or 0 for root spans.
	Parent uint64
	// Root is the ID of the span tree's root (Root == ID for root spans).
	// Since sinks see children before parents, tree-assembling consumers
	// (the flight recorder) group events by Root instead of chasing Parent
	// links that haven't arrived yet.
	Root uint64
	// Start is when the span was opened.
	Start time.Time
	// Duration is the span's wall time.
	Duration time.Duration
	// Attrs are the span's attributes in the order they were set.
	Attrs []Attr
}

// Value returns the value of the named attribute and whether it is present.
// The last value set wins.
func (e Event) Value(key string) (any, bool) {
	for i := len(e.Attrs) - 1; i >= 0; i-- {
		if e.Attrs[i].Key == key {
			return e.Attrs[i].Value, true
		}
	}
	return nil, false
}

// Str returns the named attribute as a string ("" when absent or mistyped).
func (e Event) Str(key string) string {
	v, _ := e.Value(key)
	s, _ := v.(string)
	return s
}

// Int returns the named attribute as an int64 (0 when absent or mistyped).
func (e Event) Int(key string) int64 {
	v, _ := e.Value(key)
	n, _ := v.(int64)
	return n
}

// F64 returns the named attribute as a float64 (0 when absent or mistyped).
func (e Event) F64(key string) float64 {
	v, _ := e.Value(key)
	f, _ := v.(float64)
	return f
}

// Err returns the named attribute as an error (nil when absent or mistyped).
func (e Event) Err(key string) error {
	v, _ := e.Value(key)
	err, _ := v.(error)
	return err
}

// Sink consumes completed spans. Implementations must be safe for
// concurrent use: concurrent solves may share one Tracer.
type Sink interface {
	// Span is called once per completed span. The event's Attrs slice must
	// not be retained past the call.
	Span(ev Event)
}

// Tracer creates spans and fans their completion events out to sinks. A
// Tracer is immutable after construction — derive extended ones with
// WithSink / WithMetrics — so no locking is needed on the span path. The
// zero-sink, zero-metrics tracer (including nil) is disabled and creates no
// spans at all.
type Tracer struct {
	sinks   []Sink
	metrics *Registry
}

// spanIDs issues process-globally unique span IDs. Per-tracer counters would
// collide when derived tracers (WithSink/WithMetrics) share a sink: each
// top-level solve derives its own tracer, but all feed the same trace file.
var spanIDs atomic.Uint64

// New returns a Tracer emitting to the given sinks.
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// WithSink returns a new Tracer that additionally emits to sink. The
// receiver may be nil.
func (t *Tracer) WithSink(sink Sink) *Tracer {
	if sink == nil {
		return t
	}
	nt := &Tracer{}
	if t != nil {
		nt.sinks = append(nt.sinks, t.sinks...)
		nt.metrics = t.metrics
	}
	nt.sinks = append(nt.sinks, sink)
	return nt
}

// WithMetrics returns a new Tracer that records span counts and duration
// histograms into r. The receiver may be nil.
func (t *Tracer) WithMetrics(r *Registry) *Tracer {
	nt := &Tracer{metrics: r}
	if t != nil {
		nt.sinks = append(nt.sinks, t.sinks...)
	}
	return nt
}

// Metrics returns the tracer's metrics registry (nil when none attached).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Enabled reports whether the tracer produces spans at all.
func (t *Tracer) Enabled() bool {
	return t != nil && (len(t.sinks) > 0 || t.metrics != nil)
}

// StartSpan opens a root span. It returns nil when the tracer is disabled;
// all Span methods are nil-safe, so callers never need to branch.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	if !t.Enabled() {
		return nil
	}
	return t.newSpan(name, 0, 0, attrs)
}

// newSpan issues a span. root 0 means the new span is its own tree root.
func (t *Tracer) newSpan(name string, parent, root uint64, attrs []Attr) *Span {
	sp := &Span{tr: t, name: name, id: spanIDs.Add(1), parent: parent, root: root, start: time.Now()}
	if root == 0 {
		sp.root = sp.id
	}
	if len(attrs) > 0 {
		sp.attrs = append(sp.attrs, attrs...)
	}
	return sp
}

// Span is one timed, attributed region of a solve. A Span belongs to a
// single goroutine; concurrent work must open per-goroutine children. The
// nil Span is a valid no-op.
type Span struct {
	tr     *Tracer
	name   string
	id     uint64
	parent uint64
	root   uint64
	start  time.Time
	attrs  []Attr
	ended  bool
}

// Tracer returns the tracer that created the span (nil for a nil span).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// ID returns the span's process-unique identifier (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child opens a child span.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, s.id, s.root, attrs)
}

// SetAttr appends attributes to the span. Later values for the same key win.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End completes the span, delivering it to every sink and, when a metrics
// registry is attached, recording count/duration/error metrics. A second
// End is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	ev := Event{
		Name:     s.name,
		ID:       s.id,
		Parent:   s.parent,
		Root:     s.root,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    s.attrs,
	}
	for _, sink := range s.tr.sinks {
		sink.Span(ev)
	}
	if m := s.tr.metrics; m != nil {
		series := m.spanMetrics(s.name)
		series.count.Inc()
		series.duration.Observe(ev.Duration.Seconds())
		if err := ev.Err("err"); err != nil {
			series.errCounter(m).Inc()
		}
	}
}

// EndErr records err (when non-nil) as the span's "err" attribute and ends
// the span. It is the uniform way to close spans over fallible work.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetAttr(Attr{Key: "err", Value: err})
	}
	s.End()
}

// spanKey carries the active span through a context.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp. A nil span returns ctx
// unchanged, so disabled tracing adds no context layers.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartChild opens a child of the span carried by ctx and returns it along
// with a context carrying the child. When ctx carries no span (tracing
// disabled or never started) it returns (nil, ctx) without allocating —
// this is the hot-path entry every instrumented layer uses.
func StartChild(ctx context.Context, name string, attrs ...Attr) (*Span, context.Context) {
	parent := FromContext(ctx)
	if parent == nil {
		return nil, ctx
	}
	sp := parent.Child(name, attrs...)
	return sp, ContextWithSpan(ctx, sp)
}

// StartSpan opens a child of the span carried by ctx, or a root span on tr
// when ctx carries none. Top-level solve entry points use it so nested
// solves chain onto the caller's trace while standalone solves start one.
func StartSpan(ctx context.Context, tr *Tracer, name string, attrs ...Attr) (*Span, context.Context) {
	if parent := FromContext(ctx); parent != nil {
		sp := parent.Child(name, attrs...)
		return sp, ContextWithSpan(ctx, sp)
	}
	sp := tr.StartSpan(name, attrs...)
	if sp == nil {
		return nil, ctx
	}
	return sp, ContextWithSpan(ctx, sp)
}
