package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Tests of the flight recorder's packed trees against refFlightRecorder,
// the recorder that kept Events: the ring must be pointer-free and small,
// and every read path must return what the reference returns.

// serveTree emits one /solve-shaped span tree through span, with
// components component blocks of four spans (component, wsc, wsc.run,
// setcover) under solve and prep spans: 4*components+9 spans with 3–9
// attributes each, like the trees mc3serve records. Attribute values are
// boxed afresh per tree, as a live server boxes them per request.
func serveTree(span func(Event), root uint64, components int) {
	start := time.Now()
	id := root
	ev := func(name string, parent uint64, attrs ...Attr) uint64 {
		id++
		span(Event{Name: name, ID: id, Parent: parent, Root: root, Start: start, Duration: 5 * time.Microsecond, Attrs: attrs})
		return id
	}
	ev("textio.decode", root)
	ev("core.build", root)
	solve := id + 1
	id++
	prep := id + 1
	id++
	for i, step := range []string{"feasibility", "step1", "step3", "step2"} {
		ev("prep.step", prep, Str("step", step), Int("selected", i*7+3))
	}
	span(Event{Name: "prep", ID: prep, Parent: solve, Root: root, Start: start, Duration: time.Millisecond, Attrs: []Attr{
		Str("level", "full"), Int("queries", 500+int(root%300)), Int("classifiers", 2400+int(root%700)),
		Any("stats", struct{ Forced, Removed int }{int(root % 97), int(root % 89)}),
		Int("components", components), Int("selected", 310+int(root%50)), Int("max_component", 12),
		Int("residual_queries", 3*components), Int("removed", 40),
	}})
	for c := 0; c < components; c++ {
		comp := ev("component", solve, Str("cache", "miss"), Int("index", c), Int("queries", 1+c%13))
		wsc := id + 1
		id++
		run := ev("wsc.run", wsc, Str("engine", "greedy"), F64("cost", float64(c)+0.25), Int("sets", 1+c%7))
		ev("setcover", run, Str("engine", "greedy"), Int("sets", 1+c%7), F64("cost", float64(c)+0.25), Int("pops", 3+c%11))
		span(Event{Name: "wsc", ID: wsc, Parent: comp, Root: root, Start: start, Duration: 20 * time.Microsecond, Attrs: []Attr{
			Int("elements", 1+c%13), Int("sets_available", 4+c%40), Str("engine", "greedy"),
			F64("cost", float64(c)+0.25), Int("sets", 1+c%7),
		}})
	}
	span(Event{Name: "solve", ID: solve, Parent: root, Root: root, Start: start, Duration: 3 * time.Millisecond, Attrs: []Attr{
		Str("algo", "general"), Int("queries", 500+int(root%300)), Int("classifiers", 2400+int(root%700)),
		Int("sched_workers", 2), Int("sched_steals", int(root%5)), Int("sched_spawns", components),
	}})
	span(Event{Name: "http.request", ID: root, Root: root, Start: start, Duration: 4 * time.Millisecond, Attrs: []Attr{
		Str("endpoint", "solve"), Str("method", "POST"), Str("request_id", fmt.Sprintf("lq3x9k-%06d", root)),
		Int("status", 200),
	}})
}

// serveTreeComponents gives serveTree 901 spans, a cold /solve of about 220
// residual components.
const serveTreeComponents = 223

// fillServeRing records a default ring's worth of serve-shaped trees.
func fillServeRing(span func(Event)) {
	for i := 0; i < defaultFlightCapacity; i++ {
		serveTree(span, uint64(i+1)<<20, serveTreeComponents)
	}
}

// mixedComponents gives the ith tree of fillMixedServeRing 23 to 497
// components, 101 to 1,997 spans: a stride through that range, so small and
// large trees alternate.
func mixedComponents(i int) int { return 23 + i*193%475 }

// fillMixedServeRing cycles serve-shaped trees of mixed sizes through a
// default ring three times over, two at a time with their spans
// interleaved, as two concurrent requests record them. Every evicted tree
// is replaced by one of another size.
func fillMixedServeRing(span func(Event)) {
	var a, b []Event
	for i := 0; i < 3*defaultFlightCapacity; i += 2 {
		a, b = a[:0], b[:0]
		serveTree(func(ev Event) { a = append(a, ev) }, uint64(i+1)<<20, mixedComponents(i))
		serveTree(func(ev Event) { b = append(b, ev) }, uint64(i+2)<<20, mixedComponents(i+1))
		for j := range max(len(a), len(b)) {
			if j < len(a) {
				span(a[j])
			}
			if j < len(b) {
				span(b[j])
			}
		}
	}
}

// liveHeap returns the live heap, after a full collection, that what fill
// builds adds, and how long that collection took.
func liveHeap(fill func() any) (bytes uint64, gc time.Duration) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := fill()
	runtime.GC()
	start := time.Now()
	runtime.GC()
	gc = time.Since(start)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return after.HeapAlloc - before.HeapAlloc, gc
}

// hasPointers reports whether a value of type t can hold a pointer.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice, reflect.Map,
		reflect.String, reflect.Chan, reflect.Func:
		return true
	}
	return false
}

// pointerFields lists the fields of struct type t, through embedded
// structs, whose values or, for a slice, whose elements can hold a pointer.
func pointerFields(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		field := t.Field(i)
		typ := field.Type
		if field.Anonymous {
			for _, name := range pointerFields(typ) {
				out = append(out, field.Name+"."+name)
			}
			continue
		}
		if typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if hasPointers(typ) {
			out = append(out, field.Name)
		}
	}
	return out
}

func TestFlightRingFootprint(t *testing.T) {
	// The ring is bytes, and every buffer of a tree is pointer-free but the
	// side slice.
	if typ := reflect.TypeOf(FlightRecorder{}.ring).Elem(); hasPointers(typ) {
		t.Errorf("the ring's %v can hold a pointer", typ)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(treeRec{}), reflect.TypeOf(traceBuf{})} {
		if got := pointerFields(typ); !reflect.DeepEqual(got, []string{"treeHead.other"}) {
			t.Errorf("%v fields that can hold a pointer: %v, want only the side slice", typ, got)
		}
	}
	if size := reflect.TypeOf(treeRec{}).Size(); size != treeRecBytes {
		t.Errorf("treeRec is %d bytes, want %d", size, treeRecBytes)
	}
	if size := reflect.TypeOf(treeHead{}.other).Elem().Size(); size != anyBytes {
		t.Errorf("side slice element is %d bytes, want %d", size, anyBytes)
	}

	refBytes, refGC := liveHeap(func() any {
		r := newRefFlightRecorder(0)
		fillServeRing(r.Span)
		return r
	})
	refSpans := defaultFlightCapacity * (4*serveTreeComponents + 9)
	t.Logf("reference: full ring of %d identical trees %.1f MB (%.0f B/span, GC %v)",
		defaultFlightCapacity, float64(refBytes)/1e6, float64(refBytes)/float64(refSpans), refGC)
	for _, fc := range []struct {
		name       string
		fill       func(span func(Event))
		maxPerSpan float64
	}{
		{"identical", fillServeRing, 48},
		{"mixed", fillMixedServeRing, 80},
	} {
		var (
			retained int64
			spans    int
		)
		recBytes, recGC := liveHeap(func() any {
			f := NewFlightRecorder(0)
			fc.fill(f.Span)
			retained = f.Stats().RetainedBytes
			for _, sum := range f.Snapshot() {
				spans += sum.Spans
			}
			return f
		})
		perSpan := float64(recBytes) / float64(spans)
		t.Logf("%s: full ring of %d spans %.2f MB (%.1f B/span, GC %v), retained_bytes %.2f MB",
			fc.name, spans, float64(recBytes)/1e6, perSpan, recGC, float64(retained)/1e6)
		if perSpan > fc.maxPerSpan {
			t.Errorf("%s: full ring holds %.1f B live per span, want at most %.0f", fc.name, perSpan, fc.maxPerSpan)
		}
		if d := math.Abs(float64(retained) - float64(recBytes)); d > 0.2*float64(recBytes) {
			t.Errorf("%s: retained_bytes %d, want within 20%% of the ring's live heap %d", fc.name, retained, recBytes)
		}
		if fc.name == "identical" && recBytes > refBytes/2 {
			t.Errorf("full ring holds %d B live, want at most half the reference's %d B", recBytes, refBytes)
		}
	}
}

// TestFlightRingShrinksAfterBurst: once a burst of large trees has left the
// ring, the ring gives their bytes back.
func TestFlightRingShrinksAfterBurst(t *testing.T) {
	f := NewFlightRecorder(8)
	var next uint64
	record := func(trees, components int) {
		for range trees {
			next++
			serveTree(f.Span, next<<20, components)
		}
	}
	record(8, 400) // 1,609 spans each
	burst := f.Stats().RetainedBytes
	record(16, 2) // 17 spans each
	after := f.Stats().RetainedBytes
	if after > burst/4 {
		t.Errorf("retained_bytes %d after the burst left, want at most a quarter of the %d it reached", after, burst)
	}
	if live := f.hi - f.lo; len(f.ring) > 2*live {
		t.Errorf("the ring keeps %d bytes for %d bytes of trees, want at most twice", len(f.ring), live)
	}
}

// BenchmarkFlightRingGC times a forced collection with a full ring of
// serve-shaped trees live, for the packed trees and for the reference
// recorder.
func BenchmarkFlightRingGC(b *testing.B) {
	for _, bc := range []struct {
		name string
		fill func() any
	}{
		{"packed", func() any { f := NewFlightRecorder(0); fillServeRing(f.Span); return f }},
		{"reference", func() any { r := newRefFlightRecorder(0); fillServeRing(r.Span); return r }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			keep := bc.fill()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runtime.GC()
			}
			b.StopTimer()
			b.ReportMetric(float64(ms.HeapAlloc)/1e6, "heap-MB")
			runtime.KeepAlive(keep)
		})
	}
}

// flightSrc hands out fuzz input bytes; past the end it yields zeros.
type flightSrc []byte

func (s *flightSrc) next() byte {
	if len(*s) == 0 {
		return 0
	}
	c := (*s)[0]
	*s = (*s)[1:]
	return c
}

// flakyWriter fails every nth write (never when n is 0).
type flakyWriter struct {
	bytes.Buffer
	n, writes int
}

func (w *flakyWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.n > 0 && w.writes%w.n == 0 {
		return 0, errors.New("disk full")
	}
	return w.Buffer.Write(p)
}

type fuzzLabel string

var (
	fuzzNames = []string{"http.request", "solve", "component", "", "ünïcode", "\xff\xfe", strings.Repeat("n", internMaxLen+1)}
	fuzzKeys  = []string{"request_id", "err", "request_id", "k", "", "ключ", "\xc3", strings.Repeat("k", internMaxLen+1)}
	fuzzStrs  = []string{"", "abc", "héllo wörld", "\xff\xfe\xfd", strings.Repeat("x", 300), "req-1", "req-2"}
	fuzzInts  = []int64{math.MinInt64, math.MaxInt64, 0, -1, 255, 256, 1 << 40}
	fuzzF64s  = []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	fuzzDurs  = []time.Duration{0, -1, math.MaxInt64, 1500 * time.Millisecond}
	fuzzChan  = make(chan int)
	fuzzErr   = errors.New("boom")
)

// fuzzName picks a span name, or a key when keys is set: from the pool, or
// generated, so that small intern bounds overflow.
func fuzzName(c byte, keys bool) string {
	pool := fuzzNames
	if keys {
		pool = fuzzKeys
	}
	if int(c)%32 < len(pool) {
		return pool[int(c)%32]
	}
	return "gen-" + strconv.Itoa(int(c))
}

func fuzzValue(s *flightSrc) any {
	c := s.next()
	switch c % 14 {
	case 0:
		return fuzzStrs[int(c>>4)%len(fuzzStrs)]
	case 1:
		return fuzzInts[int(c>>4)%len(fuzzInts)]
	case 2:
		return fuzzF64s[int(c>>4)%len(fuzzF64s)]
	case 3:
		return c&0x10 != 0
	case 4:
		return fuzzDurs[int(c>>4)%len(fuzzDurs)]
	case 5:
		if c&0x10 != 0 {
			return fmt.Errorf("HTTP %d", 400+int(c>>5))
		}
		return fuzzErr
	case 6:
		return struct {
			A int
			B string
		}{int(c), "b"}
	case 7:
		return nil
	case 8:
		return int(c) // an int, not an int64: Event.Int reads 0
	case 9:
		return map[string]int{"a": int(c)}
	case 10:
		return []int{1, int(c)}
	case 11:
		return fuzzLabel("label")
	case 12:
		return fuzzChan // not marshalable: rendered with fmt
	}
	return (*int)(nil)
}

func fuzzAttrs(s *flightSrc) []Attr {
	n := int(s.next() % 6)
	if n == 0 {
		return nil
	}
	attrs := make([]Attr, n)
	for i := range attrs {
		attrs[i] = Attr{Key: fuzzName(s.next(), true), Value: fuzzValue(s)}
	}
	return attrs
}

// sameEvent compares decoded events, float values by their bits.
func sameEvent(a, b Event) bool {
	if a.Name != b.Name || a.ID != b.ID || a.Parent != b.Parent || a.Root != b.Root ||
		!reflect.DeepEqual(a.Start, b.Start) || a.Duration != b.Duration ||
		len(a.Attrs) != len(b.Attrs) || (a.Attrs == nil) != (b.Attrs == nil) {
		return false
	}
	for i := range a.Attrs {
		x, y := a.Attrs[i], b.Attrs[i]
		if x.Key != y.Key {
			return false
		}
		xf, xok := x.Value.(float64)
		yf, yok := y.Value.(float64)
		if xok && yok {
			if math.Float64bits(xf) != math.Float64bits(yf) {
				return false
			}
		} else if !reflect.DeepEqual(x.Value, y.Value) {
			return false
		}
	}
	return true
}

func compareTraces(t *testing.T, id string, got, want *Trace) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("Trace(%q): found %v, reference %v", id, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if got.Root != want.Root || got.RequestID != want.RequestID || got.Truncated != want.Truncated || len(got.Spans) != len(want.Spans) {
		t.Fatalf("Trace(%q) = root %d, request %q, truncated %d, %d spans; reference %d, %q, %d, %d", id,
			got.Root, got.RequestID, got.Truncated, len(got.Spans), want.Root, want.RequestID, want.Truncated, len(want.Spans))
	}
	for i := range got.Spans {
		if !sameEvent(got.Spans[i], want.Spans[i]) {
			t.Fatalf("Trace(%q) span %d = %+v, reference %+v", id, i, got.Spans[i], want.Spans[i])
		}
	}
	gj, gerr := json.Marshal(got.JSON())
	wj, werr := json.Marshal(want.JSON())
	if (gerr == nil) != (werr == nil) || !bytes.Equal(gj, wj) {
		t.Fatalf("Trace(%q).JSON():\n got %s (%v)\nwant %s (%v)", id, gj, gerr, wj, werr)
	}
}

func compareReads(t *testing.T, f *FlightRecorder, ref *refFlightRecorder) {
	t.Helper()
	got, want := f.Stats(), ref.Stats()
	got.RetainedBytes = 0
	if got != want {
		t.Fatalf("Stats() = %+v, reference %+v", got, want)
	}
	if gs, ws := f.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("Snapshot():\n got %+v\nwant %+v", gs, ws)
	}
}

// runFlightDifferential decodes data into interleaved span trees, feeds the
// same events to a FlightRecorder and to the reference, and fails on any
// difference between what they return.
func runFlightDifferential(t *testing.T, data []byte) {
	s := flightSrc(data)
	capacity := 1 + int(s.next()%8)
	f, ref := NewFlightRecorder(capacity), newRefFlightRecorder(capacity)
	if c := s.next(); c&0x80 != 0 {
		f.maxSpans = 1 + int(c%8)
		ref.maxSpans = f.maxSpans
	}
	if c := s.next(); c < 200 {
		f.maxIntern = int(c % 20)
	}
	if c := s.next(); c&0x80 != 0 {
		f.maxInternLen = int(c & 0x7f)
	}
	var slow, refSlow flakyWriter
	if c := s.next(); c&1 != 0 {
		slow.n, refSlow.n = int(c>>6), int(c>>6)
		f.SetSlowLog(&slow, time.Duration(c>>1&0x1f)*200)
		ref.SetSlowLog(&refSlow, time.Duration(c>>1&0x1f)*200)
	}

	var (
		nextID  uint64   = 1 << 20
		clock   int64    = 1_700_000_000_000_000_000
		open    []uint64 // roots not yet ended
		members = map[uint64][]uint64{}
		roots   []uint64 // every root ID used
	)
	emit := func(ev Event) {
		f.Span(ev)
		ref.Span(ev)
		compareReads(t, f, ref)
	}
	// event builds an event of tree root; starts are unique, so the oldest
	// pending tree, which eviction picks, is always unique too.
	event := func(root uint64) Event {
		clock += 1 + int64(s.next())
		return Event{
			Name: fuzzName(s.next(), false), Root: root,
			Start: time.Unix(0, clock), Duration: time.Duration(s.next()) * 100, Attrs: fuzzAttrs(&s),
		}
	}
	newRoot := func() uint64 {
		nextID++
		open = append(open, nextID)
		roots = append(roots, nextID)
		return nextID
	}
	child := func(root uint64) {
		ev := event(root)
		switch c := s.next(); c % 8 {
		case 0:
			ev.ID = root + 1<<33 + uint64(c) // too far from its root for a delta
		case 1:
			ev.ID = root - 1 - uint64(c) // below its root
		default:
			nextID++
			ev.ID = nextID
		}
		switch c := s.next(); c % 4 {
		case 0:
			ev.Parent = root
		case 1:
			if m := members[root]; len(m) > 0 {
				ev.Parent = m[int(c)%len(m)]
			}
		case 3:
			ev.Parent = math.MaxUint64 - uint64(c)
		}
		members[root] = append(members[root], ev.ID)
		emit(ev)
	}
	// recent picks one of the last four open roots, so that trees grow
	// deeper than one span before they end.
	recent := func() int {
		return len(open) - 1 - int(s.next())%min(len(open), 4)
	}
	for len(s) > 0 {
		switch s.next() % 32 {
		case 0, 1, 2, 3, 4, 5:
			newRoot()
		case 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17:
			if len(open) == 0 {
				newRoot()
			}
			child(open[recent()])
		case 18, 19, 20, 21, 22, 23, 24, 25, 26, 27:
			if len(open) == 0 {
				continue
			}
			i := recent()
			root := open[i]
			open = append(open[:i], open[i+1:]...)
			ev := event(root)
			ev.ID = root
			c := s.next()
			switch c % 4 {
			case 0:
				ev.Start = time.Time{}
			case 1:
				ev.Parent = root - 1
			}
			// As mc3serve's roots do, often carry a request ID and an error.
			if c&0x10 != 0 {
				ev.Attrs = append(ev.Attrs, Str("request_id", fuzzStrs[int(c>>5)%len(fuzzStrs)]))
			}
			if c&0x20 != 0 {
				ev.Attrs = append(ev.Attrs, Attr{Key: "err", Value: fmt.Errorf("HTTP %d", 400+int(c>>6))})
			}
			emit(ev)
		case 28:
			// A span of a tree that already retired, or never opened.
			if len(roots) > 0 {
				child(roots[int(s.next())%len(roots)])
			}
		case 29, 30:
			// The root event of a retired tree, again.
			if len(roots) > 0 {
				root := roots[int(s.next())%len(roots)]
				ev := event(root)
				ev.ID = root
				emit(ev)
			}
		case 31:
			// Open more trees than may be pending, so eviction fires.
			for n := 60 + int(s.next()%16); n > 0; n-- {
				child(newRoot())
			}
		}
	}

	ids := []string{"", "no-such-id", "req-1", "req-2", "héllo wörld", "abc"}
	for _, root := range roots {
		ids = append(ids, strconv.FormatUint(root, 10))
	}
	for _, sum := range ref.Snapshot() {
		ids = append(ids, sum.RequestID)
	}
	for _, id := range ids {
		got, _ := f.Trace(id)
		want, _ := ref.Trace(id)
		compareTraces(t, id, got, want)
	}
	if !bytes.Equal(slow.Bytes(), refSlow.Bytes()) {
		t.Fatalf("slow log:\n got %s\nwant %s", slow.Bytes(), refSlow.Bytes())
	}
}

// flightSeeds are a header (capacity, span bound, intern bound, longest
// interned string, slow log; see runFlightDifferential) for each feature,
// each followed by a fixed pseudo-random body of operations. Together they
// reach every branch of the recorder's write and read paths.
func flightSeeds() [][]byte {
	headers := [][5]byte{
		{3, 0, 255, 0, 0},       // defaults, no slow log
		{3, 0, 3, 0, 0x01},      // intern bound 3: names and keys overflow into the arena
		{0, 0, 255, 0, 0x01},    // capacity 1: the ring wraps at every tree; errors logged
		{7, 0, 255, 0, 0x47},    // slow log at 600ns, every write failing
		{5, 0, 255, 0, 0x8b},    // slow log at 1µs, every second write failing
		{2, 0, 2, 0x82, 0x01},   // intern bound 2, names and keys over 2 bytes inline
		{4, 0, 0, 0x80, 0x01},   // nothing interned
		{1, 0x81, 19, 0, 0x03},  // span bound 2: children past it are truncated
		{6, 0x87, 255, 0x90, 0}, // span bound 8, names and keys over 16 bytes inline
	}
	rng := rand.New(rand.NewSource(1))
	var seeds [][]byte
	for _, h := range headers {
		body := make([]byte, 1200)
		rng.Read(body)
		seeds = append(seeds, append(h[:], body...))
	}
	return seeds
}

func FuzzFlightRecorderDifferential(f *testing.F) {
	for _, seed := range flightSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runFlightDifferential)
}
