package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// recordSink captures every completed span event (copying attrs, which are
// only valid during the call).
type recordSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *recordSink) Span(ev obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev.Attrs = append([]obs.Attr(nil), ev.Attrs...)
	s.events = append(s.events, ev)
}

func (s *recordSink) byName(name string) []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []obs.Event
	for _, ev := range s.events {
		if ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

func TestSpanHierarchyAndAttrs(t *testing.T) {
	sink := &recordSink{}
	tr := obs.New(sink)

	root, ctx := obs.StartSpan(context.Background(), tr, "root", obs.Str("algo", "x"))
	if root == nil {
		t.Fatal("enabled tracer returned nil root span")
	}
	child, cctx := obs.StartChild(ctx, "child", obs.Int("index", 3))
	if child == nil {
		t.Fatal("StartChild under a live span returned nil")
	}
	grand, _ := obs.StartChild(cctx, "grand")
	grand.EndErr(errors.New("boom"))
	child.SetAttr(obs.Int("index", 7)) // later value wins
	child.End()
	child.End() // double End is a no-op
	root.EndErr(nil)

	if n := len(sink.events); n != 3 {
		t.Fatalf("got %d events, want 3", n)
	}
	ge, ce, re := sink.events[0], sink.events[1], sink.events[2]
	if ge.Name != "grand" || ce.Name != "child" || re.Name != "root" {
		t.Fatalf("event order = %s,%s,%s; want grand,child,root", ge.Name, ce.Name, re.Name)
	}
	if ge.Parent != ce.ID || ce.Parent != re.ID || re.Parent != 0 {
		t.Errorf("parent chain broken: %d<-%d<-%d (root parent %d)", ge.Parent, ce.ID, re.ID, re.Parent)
	}
	if ge.Err("err") == nil {
		t.Error("EndErr did not record the error attr")
	}
	if got := ce.Int("index"); got != 7 {
		t.Errorf("last-set attr = %d, want 7", got)
	}
	if re.Str("algo") != "x" {
		t.Errorf("root attr algo = %q", re.Str("algo"))
	}
}

func TestDisabledTracerIsNoop(t *testing.T) {
	var tr *obs.Tracer // nil
	sp, ctx := obs.StartSpan(context.Background(), tr, "solve")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	if c, _ := obs.StartChild(ctx, "child"); c != nil {
		t.Fatal("child of nothing produced a span")
	}
	// All methods must be nil-safe.
	sp.SetAttr(obs.Str("k", "v"))
	sp.End()
	sp.EndErr(errors.New("x"))
	if obs.New().Enabled() {
		t.Error("sink-less, metrics-less tracer reports enabled")
	}
}

// TestSpanZeroAllocsWhenDisabled is the hot-path guarantee: instrumenting a
// layer costs no allocations when no sink or registry is attached.
func TestSpanZeroAllocsWhenDisabled(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp, _ := obs.StartChild(ctx, "component", obs.Int("index", 1))
		sp.SetAttr(obs.Int("queries", 2))
		sp.EndErr(nil)
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %.1f per op, want 0", allocs)
	}
	// The top-level entry (once per solve, not per span) may pay one
	// allocation for the variadic attr slice on a runtime-nil tracer.
	var tr *obs.Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		sp, _ := obs.StartSpan(ctx, tr, "solve", obs.Str("algo", "x"))
		sp.End()
	})
	if allocs > 1 {
		t.Errorf("nil-tracer StartSpan allocates %.1f per op, want <= 1", allocs)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, _ := obs.StartChild(ctx, "component", obs.Int("index", i))
		sp.EndErr(nil)
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := obs.New(nopSink{})
	root, ctx := obs.StartSpan(context.Background(), tr, "root")
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, _ := obs.StartChild(ctx, "component", obs.Int("index", i))
		sp.EndErr(nil)
	}
}

type nopSink struct{}

func (nopSink) Span(obs.Event) {}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	tr := obs.New(sink)
	sp := tr.StartSpan("solve", obs.Str("algo", "x"), obs.Dur("d", time.Second))
	sp.Child("inner").EndErr(errors.New("bad"))
	sp.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var doc struct {
		Name   string         `json:"name"`
		ID     uint64         `json:"id"`
		Parent uint64         `json:"parent"`
		Nanos  int64          `json:"ns"`
		Attrs  map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &doc); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if doc.Name != "inner" || doc.Parent == 0 {
		t.Errorf("inner span = %+v", doc)
	}
	if doc.Attrs["err"] != "bad" {
		t.Errorf("error attr not stringified: %v", doc.Attrs["err"])
	}
	if err := json.Unmarshal([]byte(lines[1]), &doc); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if doc.Name != "solve" || doc.Attrs["algo"] != "x" || doc.Attrs["d"] != "1s" {
		t.Errorf("solve span = %+v", doc)
	}
	if sink.Dropped() != 0 {
		t.Errorf("dropped = %d", sink.Dropped())
	}
}

func TestTracerMetricsAutoRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.New().WithMetrics(reg)
	if !tr.Enabled() {
		t.Fatal("metrics-only tracer must be enabled")
	}
	tr.StartSpan("solve").EndErr(nil)
	tr.StartSpan("solve").EndErr(errors.New("x"))
	tr.StartSpan("prep").End()

	if got := reg.Counter(`mc3_spans_total{span="solve"}`).Value(); got != 2 {
		t.Errorf("solve span count = %d, want 2", got)
	}
	if got := reg.Counter(`mc3_span_errors_total{span="solve"}`).Value(); got != 1 {
		t.Errorf("solve error count = %d, want 1", got)
	}
	if got := reg.Histogram(`mc3_span_duration_seconds{span="prep"}`).Count(); got != 1 {
		t.Errorf("prep duration observations = %d, want 1", got)
	}
}

// TestSpanMetricsResolvedOnce: once a span name's series exist, ending a
// span of a metrics-only tracer allocates no more than ending one of a
// sink-only tracer (no name formatting), and the error series appears only
// after the name's first error.
func TestSpanMetricsResolvedOnce(t *testing.T) {
	reg := obs.NewRegistry()
	withMetrics := obs.New().WithMetrics(reg)
	withSink := obs.New(nopSink{})
	withMetrics.StartSpan("solve").End()

	exposition := func() string {
		var b strings.Builder
		reg.WriteTo(&b)
		return b.String()
	}
	if text := exposition(); strings.Contains(text, "mc3_span_errors_total") {
		t.Errorf("error series listed before any error:\n%s", text)
	}
	base := testing.AllocsPerRun(200, func() { withSink.StartSpan("solve").End() })
	got := testing.AllocsPerRun(200, func() { withMetrics.StartSpan("solve").End() })
	if got > base {
		t.Errorf("ending a span with metrics allocates %.1f, without %.1f", got, base)
	}
	withMetrics.StartSpan("solve").EndErr(errors.New("x"))
	if text := exposition(); !strings.Contains(text, `mc3_span_errors_total{span="solve"} 1`) {
		t.Errorf("error series missing after the first error:\n%s", text)
	}
}

func TestConcurrentSpansUniqueIDs(t *testing.T) {
	sink := &recordSink{}
	tr := obs.New(sink)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp, ctx := obs.StartSpan(context.Background(), tr, "solve")
				c, _ := obs.StartChild(ctx, "component", obs.Int("i", i))
				c.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.events) != 1600 {
		t.Fatalf("got %d events, want 1600", len(sink.events))
	}
	for _, ev := range sink.events {
		if seen[ev.ID] {
			t.Fatalf("duplicate span ID %d", ev.ID)
		}
		seen[ev.ID] = true
	}
}

func ExampleJSONLSink() {
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&buf))
	sp := tr.StartSpan("solve", obs.Str("algo", "mc3-general"))
	sp.End()
	var doc map[string]any
	_ = json.Unmarshal(buf.Bytes(), &doc)
	fmt.Println(doc["name"], doc["attrs"].(map[string]any)["algo"])
	// Output: solve mc3-general
}
