package obs

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is a Sink retaining the last N completed span trees in a
// fixed-capacity ring — the serving layer's "why was that request slow?"
// buffer. Events are grouped by Event.Root as they arrive (children end
// before their root), and when the root span ends the assembled tree is
// retired into the ring, evicting the oldest.
//
// The recorder is built for an always-on serve path: one short mutex per
// event, and every buffer is recycled, so steady-state recording adds zero
// allocations per span once warm (flight_test.go gates this with
// AllocsPerRun). A full ring also costs the garbage collector next to
// nothing: a tree is kept not as Events but as fixed-size records that hold
// no pointers (spanRec, attrRec), with strings copied into a byte arena and
// names and keys interned, so there is nothing in it for the collector to
// mark. The read paths (Snapshot, Trace, the slow log) decode the records
// back into Events.
//
// Tail-based capture: with a slow log attached (SetSlowLog), any retired
// tree whose root exceeded the latency threshold or carries an "err"
// attribute is additionally serialized as one JSONL record — the slow-query
// log. Serialization allocates, but only on that tail path.
//
// All methods are nil-receiver-safe.
type FlightRecorder struct {
	capacity  int
	maxSpans  int // per-trace span bound; extra spans are dropped, counted
	maxIntern int // bound on the intern table's entries
	maxArena  int // per-trace arena bound; strings past it go to traceBuf.other

	mu      sync.Mutex
	pending map[uint64]*traceBuf // root ID → tree under assembly
	free    []*traceBuf          // recycled buffers
	ring    []*traceBuf          // retired trees; ring[next] is the oldest once full
	next    int

	// names interns span names and attribute keys for every tree; a string
	// reference below refOther indexes it. Entries are never removed.
	names   []string
	nameIdx map[string]uint32

	slow          io.Writer
	slowThreshold time.Duration
	slowMu        sync.Mutex // serializes slow-log writes, made outside mu

	recorded  uint64        // trees retired into the ring
	dropped   uint64        // events dropped (pending overflow, per-trace span bound)
	slowCount atomic.Uint64 // slow-log records written (outside mu, hence atomic)
	slowErrs  atomic.Uint64 // slow-log records lost to marshal or write errors
}

// traceBuf accumulates one span tree. Everything but other is pointer-free,
// and every slice is reused across trees, so steady-state appends don't
// allocate.
type traceBuf struct {
	root      uint64
	truncated int
	spans     []spanRec
	attrs     []attrRec
	arena     []byte   // string attribute values; names and keys the intern table can't take
	wide      []uint64 // ID, Parent pairs of spans whose deltas don't fit a spanRec
	other     []any    // values of any other type (errors, Any), and strings past maxArena
}

// spanRec is one span (32 bytes). IDs are deltas from the tree's root,
// which every span of the tree shares: the tracer issues a tree's span IDs
// after its root's.
type spanRec struct {
	start   int64  // Event.Start in Unix nanoseconds; zeroStart for the zero Time
	dur     int64  // Event.Duration
	id      uint32 // ID − root, or wideIDs
	parent  uint32 // Parent − root + 1, or 0 for Parent 0; with wideIDs, the pair's index in wide
	name    uint32 // string reference
	attrEnd uint32 // the span's attributes are attrs[previous span's attrEnd:attrEnd]
}

// attrRec is one attribute (16 bytes).
type attrRec struct {
	key  uint32 // string reference
	kind attrKind
	// val is the value's 64 bits (int64, float64, bool, Duration), the
	// string's arena offset<<32 | length, or the value's index in other.
	val uint64
}

type attrKind uint8

const (
	kindNil attrKind = iota
	kindString
	kindInt64
	kindFloat64
	kindBool
	kindDuration
	kindOther
)

const (
	// Sizes of the records and of other's elements, for
	// FlightStats.RetainedBytes (TestFlightRingFootprint checks them).
	spanRecBytes = 32
	attrRecBytes = 16
	anyBytes     = 16

	// wideIDs in spanRec.id marks a span whose IDs are kept in wide.
	wideIDs = math.MaxUint32
	// zeroStart is spanRec.start for the zero Time, which has no Unix
	// nanoseconds.
	zeroStart = math.MinInt64

	// A string reference (a name or a key) is an index into the intern
	// table, refOther plus an index into other, or refArena plus the arena
	// offset of a uvarint length followed by the bytes.
	refOther = 1 << 30
	refArena = 1 << 31

	// internMaxLen keeps long strings out of the intern table, so its size
	// is bounded in bytes as well as in entries.
	internMaxLen = 64
)

const (
	defaultFlightCapacity = 256
	// defaultMaxSpans bounds one trace's retained spans so a pathological
	// request (huge component fan-out) can't pin unbounded memory.
	defaultMaxSpans = 4096
	// defaultMaxIntern bounds the intern table: caller-chosen names past it
	// are copied into each trace's arena instead.
	defaultMaxIntern = 1024
	// defaultMaxArena keeps arena offsets and lengths within a string
	// reference's 31 bits.
	defaultMaxArena = refArena - 1
)

// NewFlightRecorder returns a recorder retaining the last capacity completed
// span trees (capacity <= 0 uses 256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return &FlightRecorder{
		capacity:  capacity,
		maxSpans:  defaultMaxSpans,
		maxIntern: defaultMaxIntern,
		maxArena:  defaultMaxArena,
		pending:   make(map[uint64]*traceBuf),
		ring:      make([]*traceBuf, 0, capacity),
		nameIdx:   make(map[string]uint32),
	}
}

// SetSlowLog attaches a JSONL slow-query log: every retired tree whose root
// lasted at least threshold (when threshold > 0), or whose root carries an
// "err" attribute, is written to w as one JSON line. Call before attaching
// the recorder to a tracer. The tree is copied out under the recorder's
// mutex, but marshaled and written outside it, so a slow or blocked w holds
// up only the requests whose trees it captures, never the recording of
// others. Writes are serialized, one whole line each, so w need not be safe
// for concurrent use.
func (f *FlightRecorder) SetSlowLog(w io.Writer, threshold time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.slow = w
	f.slowThreshold = threshold
	f.mu.Unlock()
}

// maxPending bounds trees under assembly. Above it, the oldest pending tree
// is evicted (a root that never ended — a panicked handler, a leaked span)
// so abandoned trees cannot pin buffers forever.
func (f *FlightRecorder) maxPending() int {
	if n := 2 * f.capacity; n > 64 {
		return n
	}
	return 64
}

// take returns a reset buffer, recycling a free one when available.
func (f *FlightRecorder) take(root uint64) *traceBuf {
	var tb *traceBuf
	if n := len(f.free); n > 0 {
		tb = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		tb = new(traceBuf)
	}
	tb.root = root
	tb.truncated = 0
	tb.spans = tb.spans[:0]
	tb.attrs = tb.attrs[:0]
	tb.arena = tb.arena[:0]
	tb.wide = tb.wide[:0]
	return tb
}

// recycle puts tb on the free list, dropping what its side slice pins.
func (f *FlightRecorder) recycle(tb *traceBuf) {
	clear(tb.other)
	tb.other = tb.other[:0]
	f.free = append(f.free, tb)
}

// Span implements Sink.
func (f *FlightRecorder) Span(ev Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	tb := f.pending[ev.Root]
	if tb == nil {
		if len(f.pending) >= f.maxPending() {
			f.evictOldestPendingLocked()
		}
		tb = f.take(ev.Root)
		f.pending[ev.Root] = tb
	}
	// The root event is always kept (it completes the tree); non-root spans
	// beyond the per-trace bound are dropped and counted.
	if len(tb.spans) >= f.maxSpans && ev.ID != ev.Root {
		tb.truncated++
		f.dropped++
		f.mu.Unlock()
		return
	}
	f.appendLocked(tb, ev)
	if ev.ID != ev.Root {
		f.mu.Unlock()
		return
	}
	// Root completed: retire the tree into the ring.
	delete(f.pending, ev.Root)
	if len(f.ring) < f.capacity {
		f.ring = append(f.ring, tb)
		f.next = len(f.ring) % f.capacity
	} else {
		f.recycle(f.ring[f.next])
		f.ring[f.next] = tb
		f.next = (f.next + 1) % f.capacity
	}
	f.recorded++
	if f.slow == nil || (ev.Err("err") == nil && (f.slowThreshold <= 0 || ev.Duration < f.slowThreshold)) {
		f.mu.Unlock()
		return
	}
	// Tail capture: copy the tree out while tb cannot be recycled, then
	// marshal and write without holding up other requests' spans.
	w, truncated, spans := f.slow, tb.truncated, f.eventsLocked(tb)
	f.mu.Unlock()
	f.writeSlow(w, ev, truncated, spans)
}

// appendLocked encodes ev as tb's next span record.
func (f *FlightRecorder) appendLocked(tb *traceBuf, ev Event) {
	r := spanRec{start: zeroStart, dur: int64(ev.Duration), name: f.refLocked(tb, ev.Name)}
	if !ev.Start.IsZero() {
		r.start = ev.Start.UnixNano()
	}
	if d, p := ev.ID-tb.root, ev.Parent-tb.root; d < wideIDs && (ev.Parent == 0 || p < wideIDs-1) {
		r.id = uint32(d)
		if ev.Parent != 0 {
			r.parent = uint32(p) + 1
		}
	} else {
		r.id, r.parent = wideIDs, uint32(len(tb.wide)/2)
		tb.wide = append(tb.wide, ev.ID, ev.Parent)
	}
	for _, a := range ev.Attrs {
		f.appendAttrLocked(tb, a)
	}
	r.attrEnd = uint32(len(tb.attrs))
	tb.spans = append(tb.spans, r)
}

// appendAttrLocked encodes a as tb's next attribute record.
func (f *FlightRecorder) appendAttrLocked(tb *traceBuf, a Attr) {
	r := attrRec{key: f.refLocked(tb, a.Key)}
	switch v := a.Value.(type) {
	case nil:
		r.kind = kindNil
	case string:
		if off := len(tb.arena); off+len(v) <= f.maxArena {
			tb.arena = append(tb.arena, v...)
			r.kind, r.val = kindString, uint64(off)<<32|uint64(len(v))
		} else {
			r.kind, r.val = kindOther, tb.appendOther(a.Value)
		}
	case int64:
		r.kind, r.val = kindInt64, uint64(v)
	case float64:
		r.kind, r.val = kindFloat64, math.Float64bits(v)
	case bool:
		r.kind = kindBool
		if v {
			r.val = 1
		}
	case time.Duration:
		r.kind, r.val = kindDuration, uint64(v)
	default:
		r.kind, r.val = kindOther, tb.appendOther(a.Value)
	}
	tb.attrs = append(tb.attrs, r)
}

func (tb *traceBuf) appendOther(v any) uint64 {
	tb.other = append(tb.other, v)
	return uint64(len(tb.other) - 1)
}

// refLocked returns the string reference for a span name or attribute key:
// its intern-table index, interning it while the table has room, else a
// copy in tb's arena (or, past maxArena, in tb's side slice).
func (f *FlightRecorder) refLocked(tb *traceBuf, s string) uint32 {
	if i, ok := f.nameIdx[s]; ok {
		return i
	}
	if len(f.names) < f.maxIntern && len(s) <= internMaxLen {
		i := uint32(len(f.names))
		s = strings.Clone(s)
		f.names = append(f.names, s)
		f.nameIdx[s] = i
		return i
	}
	if off := len(tb.arena); off+binary.MaxVarintLen64+len(s) <= f.maxArena {
		tb.arena = binary.AppendUvarint(tb.arena, uint64(len(s)))
		tb.arena = append(tb.arena, s...)
		return refArena + uint32(off)
	}
	return refOther + uint32(tb.appendOther(s))
}

// strLocked decodes a string reference.
func (f *FlightRecorder) strLocked(tb *traceBuf, ref uint32) string {
	switch {
	case ref >= refArena:
		b := tb.arena[ref-refArena:]
		n, w := binary.Uvarint(b)
		return string(b[w : w+int(n)])
	case ref >= refOther:
		return tb.other[ref-refOther].(string)
	}
	return f.names[ref]
}

// valueLocked decodes an attribute value to the dynamic type it was set
// with.
func (f *FlightRecorder) valueLocked(tb *traceBuf, r attrRec) any {
	switch r.kind {
	case kindString:
		off, n := r.val>>32, r.val&math.MaxUint32
		return string(tb.arena[off : off+n])
	case kindInt64:
		return int64(r.val)
	case kindFloat64:
		return math.Float64frombits(r.val)
	case kindBool:
		return r.val != 0
	case kindDuration:
		return time.Duration(r.val)
	case kindOther:
		return tb.other[r.val]
	}
	return nil
}

// attrRange returns the bounds of span i's attribute records.
func (tb *traceBuf) attrRange(i int) (lo, hi int) {
	if i > 0 {
		lo = int(tb.spans[i-1].attrEnd)
	}
	return lo, int(tb.spans[i].attrEnd)
}

// eventLocked decodes span i. Its attributes are decoded into attrs, which
// has room for exactly them, or into a new slice when attrs is nil. A
// decoded Start has no monotonic clock reading.
func (f *FlightRecorder) eventLocked(tb *traceBuf, i int, attrs []Attr) Event {
	r := tb.spans[i]
	ev := Event{Name: f.strLocked(tb, r.name), Root: tb.root, Duration: time.Duration(r.dur)}
	if r.start != zeroStart {
		ev.Start = time.Unix(0, r.start)
	}
	if r.id == wideIDs {
		ev.ID, ev.Parent = tb.wide[2*r.parent], tb.wide[2*r.parent+1]
	} else {
		ev.ID = tb.root + uint64(r.id)
		if r.parent != 0 {
			ev.Parent = tb.root + uint64(r.parent) - 1
		}
	}
	lo, hi := tb.attrRange(i)
	if lo == hi {
		return ev
	}
	if attrs == nil {
		attrs = make([]Attr, hi-lo)
	}
	for j, a := range tb.attrs[lo:hi] {
		attrs[j] = Attr{Key: f.strLocked(tb, a.key), Value: f.valueLocked(tb, a)}
	}
	ev.Attrs = attrs
	return ev
}

// eventsLocked decodes every span of tb, in completion order.
func (f *FlightRecorder) eventsLocked(tb *traceBuf) []Event {
	out := make([]Event, len(tb.spans))
	attrs := make([]Attr, len(tb.attrs))
	for i := range out {
		lo, hi := tb.attrRange(i)
		out[i] = f.eventLocked(tb, i, attrs[lo:hi:hi])
	}
	return out
}

// rootLocked decodes the root of a retired tree: the span that retired it,
// always its last record.
func (f *FlightRecorder) rootLocked(tb *traceBuf) Event {
	return f.eventLocked(tb, len(tb.spans)-1, nil)
}

// evictOldestPendingLocked drops the pending tree whose first span started
// longest ago, recycling its buffer. Rare: only fires when maxPending trees
// are simultaneously under assembly (or have leaked). A pending tree holds
// at least the span that opened it.
func (f *FlightRecorder) evictOldestPendingLocked() {
	var (
		oldest *traceBuf
		key    uint64
	)
	for root, tb := range f.pending {
		if oldest == nil || tb.spans[0].start < oldest.spans[0].start {
			oldest, key = tb, root
		}
	}
	f.dropped += uint64(len(oldest.spans))
	delete(f.pending, key)
	f.recycle(oldest)
}

// slowRecord is the JSONL wire form of one slow-query capture.
type slowRecord struct {
	Kind      string     `json:"kind"` // "slow" (threshold) or "error"
	RequestID string     `json:"request_id,omitempty"`
	Root      uint64     `json:"root"`
	Name      string     `json:"name"`
	TS        time.Time  `json:"ts"`
	Nanos     int64      `json:"ns"`
	Err       string     `json:"err,omitempty"`
	Truncated int        `json:"truncated_spans,omitempty"`
	Spans     []jsonSpan `json:"spans"`
}

// writeSlow writes one slow-query JSONL record: root is the span that
// retired the tree, spans the decoded tree. It runs outside f.mu.
func (f *FlightRecorder) writeSlow(w io.Writer, root Event, truncated int, spans []Event) {
	rec := slowRecord{
		Kind:      "slow",
		RequestID: root.Str("request_id"),
		Root:      root.Root,
		Name:      root.Name,
		TS:        root.Start,
		Nanos:     int64(root.Duration),
		Truncated: truncated,
		Spans:     jsonSpans(spans),
	}
	if err := root.Err("err"); err != nil {
		rec.Kind = "error"
		rec.Err = err.Error()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.slowErrs.Add(1)
		return
	}
	f.slowMu.Lock()
	_, err = w.Write(append(line, '\n'))
	f.slowMu.Unlock()
	if err != nil {
		f.slowErrs.Add(1)
		return
	}
	f.slowCount.Add(1)
}

// jsonSpans renders events in the JSONLSink wire format.
func jsonSpans(events []Event) []jsonSpan {
	out := make([]jsonSpan, len(events))
	for i, ev := range events {
		out[i] = jsonSpan{Name: ev.Name, ID: ev.ID, Parent: ev.Parent, TS: ev.Start, Nanos: int64(ev.Duration)}
		if len(ev.Attrs) > 0 {
			out[i].Attrs = make(map[string]any, len(ev.Attrs))
			for _, a := range ev.Attrs {
				out[i].Attrs[a.Key] = jsonValue(a.Value)
			}
		}
	}
	return out
}

// Trace is one retained span tree, spans in completion order (children
// before parents; the root is last). Returned data is a deep copy — safe to
// use while the recorder keeps recording.
type Trace struct {
	Root      uint64
	RequestID string
	Spans     []Event
	Truncated int
}

// rootEvent returns the tree's root span event.
func (t *Trace) rootEvent() Event {
	for i := len(t.Spans) - 1; i >= 0; i-- {
		if t.Spans[i].ID == t.Spans[i].Root {
			return t.Spans[i]
		}
	}
	return Event{}
}

// JSON returns the trace as a JSON-marshalable document: root metadata plus
// every span in the JSONL wire format.
func (t *Trace) JSON() any {
	root := t.rootEvent()
	doc := struct {
		Root      uint64     `json:"root"`
		RequestID string     `json:"request_id,omitempty"`
		Name      string     `json:"name"`
		TS        time.Time  `json:"ts"`
		Nanos     int64      `json:"ns"`
		Err       string     `json:"err,omitempty"`
		Truncated int        `json:"truncated_spans,omitempty"`
		Spans     []jsonSpan `json:"spans"`
	}{
		Root:      t.Root,
		RequestID: t.RequestID,
		Name:      root.Name,
		TS:        root.Start,
		Nanos:     int64(root.Duration),
		Truncated: t.Truncated,
		Spans:     jsonSpans(t.Spans),
	}
	if err := root.Err("err"); err != nil {
		doc.Err = err.Error()
	}
	return doc
}

// TraceSummary is one ring entry's overview — the /debug/requests row.
type TraceSummary struct {
	Root      uint64    `json:"root"`
	Name      string    `json:"name"`
	RequestID string    `json:"request_id,omitempty"`
	TS        time.Time `json:"ts"`
	Nanos     int64     `json:"ns"`
	Err       string    `json:"err,omitempty"`
	Spans     int       `json:"spans"`
}

// Snapshot returns summaries of the retained trees, newest first. Only each
// tree's root is decoded.
func (f *FlightRecorder) Snapshot() []TraceSummary {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]TraceSummary, 0, len(f.ring))
	// Newest is the slot before f.next (once full); before wrap, the ring is
	// append-ordered so newest is the last element.
	n := len(f.ring)
	for i := 1; i <= n; i++ {
		tb := f.ring[((f.next-i)%n+n)%n]
		root := f.rootLocked(tb)
		sum := TraceSummary{
			Root:      tb.root,
			Name:      root.Name,
			RequestID: root.Str("request_id"),
			TS:        root.Start,
			Nanos:     int64(root.Duration),
			Spans:     len(tb.spans),
		}
		if err := root.Err("err"); err != nil {
			sum.Err = err.Error()
		}
		out = append(out, sum)
	}
	return out
}

// Trace returns a deep copy of the retained tree whose root span ID (decimal
// string) or request_id attribute matches id.
func (f *FlightRecorder) Trace(id string) (*Trace, bool) {
	if f == nil {
		return nil, false
	}
	rootID, _ := strconv.ParseUint(id, 10, 64)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, tb := range f.ring {
		root := f.rootLocked(tb)
		if tb.root != rootID && (id == "" || root.Str("request_id") != id) {
			continue
		}
		return &Trace{
			Root:      tb.root,
			RequestID: root.Str("request_id"),
			Spans:     f.eventsLocked(tb),
			Truncated: tb.truncated,
		}, true
	}
	return nil, false
}

// FlightStats are the recorder's counters.
type FlightStats struct {
	// Recorded counts span trees retired into the ring.
	Recorded uint64 `json:"recorded"`
	// Retained is the number of trees currently in the ring.
	Retained int `json:"retained"`
	// Pending is the number of trees under assembly.
	Pending int `json:"pending"`
	// Dropped counts span events discarded (per-trace span bound, pending
	// overflow).
	Dropped uint64 `json:"dropped"`
	// SlowRecords counts slow-query log records written.
	SlowRecords uint64 `json:"slow_records"`
	// SlowErrors counts slow-query records lost to marshal/write errors.
	SlowErrors uint64 `json:"slow_errors,omitempty"`
	// RetainedBytes is the capacity, in bytes, of the buffers the ring and
	// the free list hold: records, arenas and side slices (the values the
	// side slices point to are not counted).
	RetainedBytes int64 `json:"retained_bytes"`
}

// Stats returns the recorder's counters.
func (f *FlightRecorder) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var retained int64
	for _, tb := range f.ring {
		retained += tb.retainedBytes()
	}
	for _, tb := range f.free {
		retained += tb.retainedBytes()
	}
	return FlightStats{
		Recorded:      f.recorded,
		Retained:      len(f.ring),
		Pending:       len(f.pending),
		Dropped:       f.dropped,
		SlowRecords:   f.slowCount.Load(),
		SlowErrors:    f.slowErrs.Load(),
		RetainedBytes: retained,
	}
}

// retainedBytes is the capacity of tb's buffers in bytes.
func (tb *traceBuf) retainedBytes() int64 {
	return int64(cap(tb.spans)*spanRecBytes + cap(tb.attrs)*attrRecBytes + cap(tb.arena) +
		cap(tb.wide)*8 + cap(tb.other)*anyBytes)
}
