package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// runTree emits one three-span tree (root + two children, with attrs)
// through tr, tagging the root with reqID, and returns the root span ID.
func runTree(tr *obs.Tracer, reqID string) uint64 {
	root, ctx := obs.StartSpan(context.Background(), tr, "http.request",
		obs.Str("request_id", reqID), obs.Str("endpoint", "solve"))
	sp, sctx := obs.StartChild(ctx, "solve", obs.Str("algo", "mc3-k2"))
	c, _ := obs.StartChild(sctx, "component", obs.Int("index", 0), obs.Int("queries", 3))
	c.End()
	sp.End()
	id := root.ID()
	root.End()
	return id
}

func TestFlightRecorderRetainsAndEvicts(t *testing.T) {
	f := obs.NewFlightRecorder(4)
	tr := obs.New(f)
	var ids []uint64
	for i := 0; i < 6; i++ {
		ids = append(ids, runTree(tr, fmt.Sprintf("req-%d", i)))
	}

	st := f.Stats()
	if st.Recorded != 6 || st.Retained != 4 || st.Pending != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want recorded 6, retained 4, pending 0, dropped 0", st)
	}

	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d entries, want 4", len(snap))
	}
	// Newest first: req-5, req-4, req-3, req-2.
	for i, sum := range snap {
		want := fmt.Sprintf("req-%d", 5-i)
		if sum.RequestID != want {
			t.Errorf("snapshot[%d].RequestID = %q, want %q", i, sum.RequestID, want)
		}
		if sum.Spans != 3 {
			t.Errorf("snapshot[%d].Spans = %d, want 3", i, sum.Spans)
		}
		if sum.Name != "http.request" {
			t.Errorf("snapshot[%d].Name = %q", i, sum.Name)
		}
	}

	// Evicted trees are gone; retained ones resolve by root ID and request ID.
	if _, ok := f.Trace(strconv.FormatUint(ids[0], 10)); ok {
		t.Error("evicted trace still resolvable")
	}
	tc, ok := f.Trace(strconv.FormatUint(ids[5], 10))
	if !ok {
		t.Fatal("newest trace not resolvable by root ID")
	}
	if tc.RequestID != "req-5" || len(tc.Spans) != 3 {
		t.Fatalf("trace = %+v", tc)
	}
	if tc2, ok := f.Trace("req-3"); !ok || tc2.RequestID != "req-3" {
		t.Fatalf("lookup by request_id failed: %v %v", tc2, ok)
	}
	if _, ok := f.Trace("no-such-id"); ok {
		t.Error("unknown ID resolved")
	}
	if _, ok := f.Trace(""); ok {
		t.Error("empty ID resolved")
	}

	// The returned trace is a deep copy: span order is completion order with
	// the root last, and the parent chain is intact.
	last := tc.Spans[len(tc.Spans)-1]
	if last.ID != last.Root || last.Name != "http.request" {
		t.Errorf("root span not last: %+v", last)
	}
	for _, ev := range tc.Spans[:len(tc.Spans)-1] {
		if ev.Root != last.ID {
			t.Errorf("span %q has Root %d, want %d", ev.Name, ev.Root, last.ID)
		}
	}
}

func TestFlightRecorderSlowAndErrorCapture(t *testing.T) {
	f := obs.NewFlightRecorder(8)
	var slow bytes.Buffer
	f.SetSlowLog(&slow, 50*time.Millisecond)
	tr := obs.New(f)

	runTree(tr, "fast-req") // under threshold: not captured

	// Over threshold: captured as kind "slow".
	root, _ := obs.StartSpan(context.Background(), tr, "http.request", obs.Str("request_id", "slow-req"))
	time.Sleep(60 * time.Millisecond)
	root.End()

	// Error root: captured as kind "error" regardless of latency.
	root, ctx := obs.StartSpan(context.Background(), tr, "http.request", obs.Str("request_id", "bad-req"))
	c, _ := obs.StartChild(ctx, "solve")
	c.End()
	root.EndErr(errors.New("HTTP 422"))

	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow log has %d records, want 2:\n%s", len(lines), slow.String())
	}
	var rec struct {
		Kind      string `json:"kind"`
		RequestID string `json:"request_id"`
		Err       string `json:"err"`
		Nanos     int64  `json:"ns"`
		Spans     []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow record not JSON: %v", err)
	}
	if rec.Kind != "slow" || rec.RequestID != "slow-req" || rec.Nanos < int64(50*time.Millisecond) {
		t.Errorf("slow record = %+v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("error record not JSON: %v", err)
	}
	if rec.Kind != "error" || rec.RequestID != "bad-req" || rec.Err != "HTTP 422" {
		t.Errorf("error record = %+v", rec)
	}
	if len(rec.Spans) != 2 {
		t.Errorf("error record has %d spans, want 2", len(rec.Spans))
	}
	if st := f.Stats(); st.SlowRecords != 2 || st.SlowErrors != 0 {
		t.Errorf("stats = %+v, want 2 slow records", st)
	}
}

func TestFlightRecorderTruncatesHugeTraces(t *testing.T) {
	f := obs.NewFlightRecorder(2)
	tr := obs.New(f)
	root, ctx := obs.StartSpan(context.Background(), tr, "http.request", obs.Str("request_id", "big"))
	// Default per-trace bound is 4096 spans; emit more.
	for i := 0; i < 5000; i++ {
		c, _ := obs.StartChild(ctx, "component", obs.Int("index", i))
		c.End()
	}
	root.End()

	tc, ok := f.Trace("big")
	if !ok {
		t.Fatal("truncated trace not retained")
	}
	// 4096 children kept + the root (always kept).
	if len(tc.Spans) != 4097 {
		t.Errorf("retained %d spans, want 4097", len(tc.Spans))
	}
	if tc.Truncated != 5000-4096 {
		t.Errorf("Truncated = %d, want %d", tc.Truncated, 5000-4096)
	}
	if st := f.Stats(); st.Dropped != 5000-4096 {
		t.Errorf("Dropped = %d, want %d", st.Dropped, 5000-4096)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *obs.FlightRecorder
	f.Span(obs.Event{})
	f.SetSlowLog(&bytes.Buffer{}, time.Second)
	if f.Snapshot() != nil {
		t.Error("nil Snapshot not nil")
	}
	if _, ok := f.Trace("x"); ok {
		t.Error("nil Trace resolved")
	}
	if st := f.Stats(); st != (obs.FlightStats{}) {
		t.Errorf("nil Stats = %+v", st)
	}
}

// TestFlightRecorderZeroAllocSteadyState is the tentpole's perf gate: once
// the ring and its buffers are warm, recording a span tree must add zero
// allocations per span over what an enabled tracer already pays. We measure
// the same workload against a nop-sink tracer and a recorder tracer and
// compare.
func TestFlightRecorderZeroAllocSteadyState(t *testing.T) {
	f := obs.NewFlightRecorder(16)
	base := obs.New(nopSink{})
	with := obs.New(nopSink{}, f)

	// Warm the ring past capacity so every retire recycles a buffer.
	for i := 0; i < 64; i++ {
		runTree(with, "warm")
	}

	baseline := testing.AllocsPerRun(200, func() { runTree(base, "req") })
	recorded := testing.AllocsPerRun(200, func() { runTree(with, "req") })
	if recorded > baseline {
		t.Errorf("flight recorder adds %.2f allocs per tree (baseline %.2f, with recorder %.2f), want 0",
			recorded-baseline, baseline, recorded)
	}
}

// TestFlightRecorderSinkZeroAlloc gates the recorder in isolation: feeding
// pre-built events (no tracer in the loop) must not allocate once warm.
func TestFlightRecorderSinkZeroAlloc(t *testing.T) {
	f := obs.NewFlightRecorder(8)
	attrs := []obs.Attr{obs.Str("request_id", "r"), obs.Int("status", 200)}
	var next uint64 = 1e9
	emit := func() {
		id := next
		next += 2
		// One child, then the root.
		f.Span(obs.Event{Name: "solve", ID: id + 1, Parent: id, Root: id, Attrs: attrs})
		f.Span(obs.Event{Name: "http.request", ID: id, Root: id, Attrs: attrs})
	}
	for i := 0; i < 64; i++ {
		emit() // warm ring + freelist
	}
	if allocs := testing.AllocsPerRun(500, emit); allocs != 0 {
		t.Errorf("warm recorder allocates %.2f per tree, want 0", allocs)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := obs.NewFlightRecorder(32)
	tr := obs.New(f)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers hammer the query surface while writers record.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sum := range f.Snapshot() {
					f.Trace(strconv.FormatUint(sum.Root, 10))
				}
				f.Stats()
			}
		}()
	}
	var ww sync.WaitGroup
	for g := 0; g < 4; g++ {
		ww.Add(1)
		go func(g int) {
			defer ww.Done()
			for i := 0; i < 200; i++ {
				runTree(tr, fmt.Sprintf("g%d-%d", g, i))
			}
		}(g)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if st := f.Stats(); st.Recorded != 800 {
		t.Errorf("recorded %d trees, want 800", st.Recorded)
	}
}

// blockingWriter blocks every Write until release is closed, announcing on
// entered that a write has started.
type blockingWriter struct {
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	select {
	case w.entered <- struct{}{}:
	default:
	}
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestFlightRecorderSlowLogDoesNotBlockRecording: while the slow log's
// writer is stuck, other requests' trees still record, and the read paths
// still answer.
func TestFlightRecorderSlowLogDoesNotBlockRecording(t *testing.T) {
	f := obs.NewFlightRecorder(8)
	w := &blockingWriter{entered: make(chan struct{}, 1), release: make(chan struct{})}
	f.SetSlowLog(w, 0)
	tr := obs.New(f)

	captured := make(chan struct{})
	go func() {
		defer close(captured)
		root := tr.StartSpan("http.request", obs.Str("request_id", "stuck"))
		root.EndErr(errors.New("HTTP 500"))
	}()
	<-w.entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		runTree(tr, "unblocked")
		f.Stats()
		f.Snapshot()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		close(w.release)
		t.Fatal("a tree could not be recorded while the slow log's writer was blocked")
	}
	close(w.release)
	<-captured

	if _, ok := f.Trace("unblocked"); !ok {
		t.Error("tree recorded during the blocked write is not retained")
	}
	if st := f.Stats(); st.Recorded != 2 || st.SlowRecords != 1 {
		t.Errorf("stats = %+v, want 2 recorded, 1 slow record", st)
	}
	if !strings.Contains(w.buf.String(), `"request_id":"stuck"`) {
		t.Errorf("slow log = %q, want the stuck request's record", w.buf.String())
	}
}

// TestNonFiniteFloatAttrs: a float attribute JSON has no number for renders
// as a string, and the rest of its trace still serializes.
func TestNonFiniteFloatAttrs(t *testing.T) {
	f := obs.NewFlightRecorder(4)
	var slow, jsonl bytes.Buffer
	f.SetSlowLog(&slow, 0)
	tr := obs.New(f, obs.NewJSONLSink(&jsonl))

	root, ctx := obs.StartSpan(context.Background(), tr, "http.request", obs.Str("request_id", "inf"))
	c, _ := obs.StartChild(ctx, "solve",
		obs.F64("ratio", math.Inf(1)), obs.F64("low", math.Inf(-1)), obs.F64("gap", math.NaN()), obs.Int("sets", 3))
	c.End()
	root.EndErr(errors.New("HTTP 422"))

	want := `{"gap":"NaN","low":"-Inf","ratio":"+Inf","sets":3}`
	if st := f.Stats(); st.SlowRecords != 1 || st.SlowErrors != 0 {
		t.Errorf("stats = %+v, want the slow record written", st)
	}
	if !strings.Contains(slow.String(), `"attrs":`+want) {
		t.Errorf("slow log lacks %s:\n%s", want, slow.String())
	}
	tc, ok := f.Trace("inf")
	if !ok {
		t.Fatal("trace not retained")
	}
	doc, err := json.Marshal(tc.JSON())
	if err != nil {
		t.Fatalf("Trace JSON: %v", err)
	}
	if !strings.Contains(string(doc), `"attrs":`+want) {
		t.Errorf("Trace JSON lacks %s:\n%s", want, doc)
	}
	if v := tc.Spans[0].F64("ratio"); !math.IsInf(v, 1) {
		t.Errorf("decoded ratio = %v, want +Inf", v)
	}
	line, _, _ := strings.Cut(jsonl.String(), "\n")
	if !strings.Contains(line, `"attrs":`+want) {
		t.Errorf("JSONL span lacks %s: %s", want, line)
	}
}

// TestFlightRecorderRetainedBytes: retained_bytes counts the ring's buffers,
// grows as the ring fills, and stays put once it recycles.
func TestFlightRecorderRetainedBytes(t *testing.T) {
	f := obs.NewFlightRecorder(4)
	tr := obs.New(f)
	var last int64
	for i := 0; i < 4; i++ {
		runTree(tr, fmt.Sprintf("req-%d", i))
		st := f.Stats()
		if st.RetainedBytes <= last {
			t.Fatalf("after %d trees retained_bytes = %d, want more than %d", i+1, st.RetainedBytes, last)
		}
		last = st.RetainedBytes
	}
	// The first tree past capacity leaves the evicted buffer on the free
	// list; from then on every tree reuses a buffer.
	runTree(tr, "wrap")
	last = f.Stats().RetainedBytes
	for i := 0; i < 8; i++ {
		runTree(tr, "again")
	}
	if st := f.Stats(); st.RetainedBytes != last {
		t.Errorf("recycling a full ring of same-shaped trees moved retained_bytes from %d to %d", last, st.RetainedBytes)
	}
	doc, _ := json.Marshal(f.Stats())
	if !strings.Contains(string(doc), `"retained_bytes":`) {
		t.Errorf("stats JSON lacks retained_bytes: %s", doc)
	}
}
