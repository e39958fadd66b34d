package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a lightweight metrics registry: counters, gauges, and
// duration histograms with fixed log-scale buckets. Metric names follow the
// Prometheus convention and may carry a label set inline:
//
//	mc3_solves_total
//	mc3_span_duration_seconds{span="prep"}
//
// Series that share the family name (the part before '{') are grouped under
// one # TYPE line in the Prometheus exposition. All methods are safe for
// concurrent use, and all methods on a nil *Registry (and on the nil
// metrics they return) are no-ops, so call sites never branch on whether
// metrics are enabled.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // name (incl. labels) → *Counter | *Gauge | *Histogram
	spans   sync.Map       // span name → *spanSeries
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// lookup returns the metric under name, creating it with mk on first use.
// It panics when the name is already registered as a different kind — a
// programmer error, mirroring expvar.Publish.
func lookup[T any](r *Registry, name string, mk func() *T) *T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(*T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return t
	}
	t := mk()
	r.metrics[name] = t
	return t
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return new(Counter) })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the named duration histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, name, func() *Histogram { return new(Histogram) })
}

// spanSeries holds the metrics Span.End records for one span name, resolved
// once per registry so that ending a span formats no names and takes no
// registry lock.
type spanSeries struct {
	count    *Counter   // mc3_spans_total{span=…}
	duration *Histogram // mc3_span_duration_seconds{span=…}
	errName  string
	errs     atomic.Pointer[Counter] // mc3_span_errors_total{span=…}, registered at the first error
}

// spanMetrics returns name's span metrics, registering them on first use.
func (r *Registry) spanMetrics(name string) *spanSeries {
	if s, ok := r.spans.Load(name); ok {
		return s.(*spanSeries)
	}
	label := fmt.Sprintf("{span=%q}", name)
	s, _ := r.spans.LoadOrStore(name, &spanSeries{
		count:    r.Counter("mc3_spans_total" + label),
		duration: r.Histogram("mc3_span_duration_seconds" + label),
		errName:  "mc3_span_errors_total" + label,
	})
	return s.(*spanSeries)
}

// errCounter returns the span's error counter. It is registered only when the
// span first ends with an error, so /metrics lists it only from then on.
func (s *spanSeries) errCounter(r *Registry) *Counter {
	if c := s.errs.Load(); c != nil {
		return c
	}
	c := r.Counter(s.errName)
	s.errs.Store(c)
	return c
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a floating-point metric that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (atomically, via CAS).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histogram bucket bounds: fixed log-scale (factor 2) from 1µs to ~33s.
// Durations above the last bound land in the implicit +Inf bucket.
const numBuckets = 26

// bucketBounds holds the upper bounds, in seconds, of the finite buckets.
var bucketBounds = func() [numBuckets]float64 {
	var b [numBuckets]float64
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// HistogramBounds returns the (shared, fixed) upper bucket bounds in
// seconds, excluding the implicit +Inf bucket.
func HistogramBounds() []float64 {
	out := make([]float64, numBuckets)
	copy(out, bucketBounds[:])
	return out
}

// Histogram is a duration histogram with fixed log-scale buckets (factor 2,
// 1µs … ~33s, plus +Inf). Observations are in seconds.
type Histogram struct {
	counts [numBuckets + 1]atomic.Int64
	count  atomic.Int64
	sum    Gauge
}

// Observe records one value (seconds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(bucketBounds[:], v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (seconds).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Quantile estimates the q-quantile (clamped to [0, 1]) of the observed
// distribution from the fixed log-scale buckets: it finds the bucket where
// the cumulative count crosses q·count and interpolates linearly inside it.
// The first bucket interpolates from 0; observations in the +Inf bucket are
// clamped to the last finite bound (the estimate cannot exceed it). Returns
// 0 for a nil or empty histogram. Concurrent Observe calls may make the
// per-bucket counts and the total drift slightly apart; the estimate
// degrades gracefully (it clamps, never panics).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < numBuckets; i++ {
		c := float64(h.counts[i].Load())
		if c <= 0 {
			continue
		}
		if cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = bucketBounds[i-1]
			}
			hi := bucketBounds[i]
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	// Rank falls in the +Inf bucket: clamp to the last finite bound.
	return bucketBounds[numBuckets-1]
}

// splitName separates a metric name into its family and inline label set:
// `f{a="b"}` → ("f", `a="b"`); a plain name has empty labels.
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// joinLabels renders a label set, merging extra labels after the existing
// ones: joinLabels(`a="b"`, `le="1"`) → `{a="b",le="1"}`.
func joinLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	}
	return "{" + labels + "," + extra + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo writes the registry in the Prometheus text exposition format
// (version 0.0.4): one # TYPE line per metric family, series sorted by name
// for deterministic output.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	metrics := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		names = append(names, name)
		metrics[name] = m
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	typed := make(map[string]bool)
	writeType := func(family, kind string) {
		if !typed[family] {
			typed[family] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, kind)
		}
	}
	for _, name := range names {
		family, labels := splitName(name)
		switch m := metrics[name].(type) {
		case *Counter:
			writeType(family, "counter")
			fmt.Fprintf(&b, "%s%s %d\n", family, joinLabels(labels, ""), m.Value())
		case *Gauge:
			writeType(family, "gauge")
			fmt.Fprintf(&b, "%s%s %s\n", family, joinLabels(labels, ""), formatFloat(m.Value()))
		case *Histogram:
			writeType(family, "histogram")
			var cum int64
			for i := 0; i < numBuckets; i++ {
				cum += m.counts[i].Load()
				le := fmt.Sprintf("le=%q", formatFloat(bucketBounds[i]))
				fmt.Fprintf(&b, "%s_bucket%s %d\n", family, joinLabels(labels, le), cum)
			}
			cum += m.counts[numBuckets].Load()
			fmt.Fprintf(&b, "%s_bucket%s %d\n", family, joinLabels(labels, `le="+Inf"`), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", family, joinLabels(labels, ""), formatFloat(m.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", family, joinLabels(labels, ""), m.count.Load())
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// ServeHTTP serves the Prometheus exposition — mount the registry at
// /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WriteTo(w)
}

// Snapshot returns a point-in-time view of every metric, suitable for JSON
// marshaling: counters as integers, gauges as floats, histograms as
// {count, sum} objects.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			out[name] = m.Value()
		case *Gauge:
			out[name] = m.Value()
		case *Histogram:
			out[name] = map[string]any{"count": m.Count(), "sum": m.Sum()}
		}
	}
	return out
}

// published tracks expvar names this process has already claimed, because
// expvar.Publish panics on duplicates (e.g. across tests).
var published sync.Map

// Publish exposes the registry under name in the process-wide expvar
// namespace (served at /debug/vars). Publishing the same name twice is a
// no-op; the first registry wins.
func (r *Registry) Publish(name string) {
	if r == nil {
		return
	}
	if _, loaded := published.LoadOrStore(name, true); loaded {
		return
	}
	if expvar.Get(name) != nil {
		return // someone else owns the name; don't panic
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
