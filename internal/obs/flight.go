package obs

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is a Sink retaining the last N completed span trees — the
// serving layer's "why was that request slow?" buffer. Events are grouped by
// Event.Root as they arrive (children end before their root), and when the
// root span ends the assembled tree is retired into the ring, evicting the
// oldest.
//
// The recorder is built for an always-on serve path: one short mutex per
// event, and every buffer is recycled, so steady-state recording adds zero
// allocations per span once warm (flight_test.go gates this with
// AllocsPerRun). A tree is kept not as Events but packed into one byte
// stream (see appendLocked) with names and keys interned, and retired trees
// lie back to back in one byte ring, each at its own size. So a full ring is
// a few pointer-free buffers that the garbage collector has nothing to mark
// in, and a burst of large trees leaves no slack behind once the ring has
// moved past it. The read paths (Snapshot, Trace, the slow log) decode the
// stream back into Events.
//
// Tail-based capture: with a slow log attached (SetSlowLog), any retired
// tree whose root exceeded the latency threshold or carries an "err"
// attribute is additionally serialized as one JSONL record — the slow-query
// log. Serialization allocates, but only on that tail path.
//
// All methods are nil-receiver-safe.
type FlightRecorder struct {
	capacity     int
	maxSpans     int // per-trace span bound; extra spans are dropped, counted
	maxIntern    int // bound on the intern table's entries
	maxInternLen int // longest name or key the intern table takes

	mu      sync.Mutex
	pending map[uint64]*traceBuf // root ID → tree under assembly
	free    []*traceBuf          // recycled buffers
	trees   []treeRec            // retired trees; trees[next] is the oldest once full
	next    int
	// ring holds the retired trees' packed spans back to back in
	// ring[lo:hi], oldest first (see retireLocked).
	ring   []byte
	lo, hi int

	// names interns span names and attribute keys for every tree; a string
	// reference names its entry by index. Entries are never removed.
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

// treeHead describes one packed tree.
type treeHead struct {
	root      uint64
	spans     int // packed spans
	attrs     int // their attributes
	truncated int
	// lastOff is where the last span starts in the tree's bytes, and
	// lastPrev the start its start is a delta from, so that a retired
	// tree's root, always its last span, decodes on its own.
	lastOff  int
	lastPrev int64
	other    []any // values of any other type (errors, Any)
}

// treeRec is one retired tree: its spans are ring[off:off+size].
type treeRec struct {
	treeHead
	off, size int
}

// traceBuf is a tree under assembly, packed as it will be in the ring into
// a buffer that is reused across trees, so steady-state appends don't
// allocate. Everything but other is pointer-free.
type traceBuf struct {
	treeHead
	first int64 // the first span's start, for evictOldestPendingLocked
	last  int64 // the last span's start
	data  []byte
}

// attrKind is the low three bits of an attribute's kind byte.
type attrKind uint8

const (
	kindNil attrKind = iota
	kindString
	kindInt64
	kindFloat64 // the kind byte's upper bits count the value's bytes
	kindFalse
	kindTrue
	kindDuration
	kindOther
)

const (
	// Sizes of a tree record and of a side slice's elements, for
	// FlightStats.RetainedBytes (TestFlightRingFootprint checks them).
	treeRecBytes = 88
	anyBytes     = 16

	// zeroStart stands for the zero Time, which has no Unix nanoseconds.
	zeroStart = math.MinInt64

	// internMaxLen keeps long strings out of the intern table, so its size
	// is bounded in bytes as well as in entries.
	internMaxLen = 64

	// traceBufBytes is a new tree buffer's capacity: small trees never
	// grow it.
	traceBufBytes = 1 << 10
)

const (
	defaultFlightCapacity = 256
	// defaultMaxSpans bounds one trace's retained spans so a pathological
	// request (huge component fan-out) can't pin unbounded memory.
	defaultMaxSpans = 4096
	// defaultMaxIntern bounds the intern table: caller-chosen names past it
	// are copied into each trace's stream instead.
	defaultMaxIntern = 1024
)

// NewFlightRecorder returns a recorder retaining the last capacity completed
// span trees (capacity <= 0 uses 256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return &FlightRecorder{
		capacity:     capacity,
		maxSpans:     defaultMaxSpans,
		maxIntern:    defaultMaxIntern,
		maxInternLen: internMaxLen,
		pending:      make(map[uint64]*traceBuf),
		trees:        make([]treeRec, 0, capacity),
		nameIdx:      make(map[string]uint32),
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
		tb = &traceBuf{data: make([]byte, 0, traceBufBytes)}
	}
	tb.treeHead = treeHead{root: root, other: tb.other}
	tb.first, tb.last = 0, 0
	tb.data = tb.data[:0]
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
	if tb.spans >= f.maxSpans && ev.ID != ev.Root {
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
	t := f.retireLocked(tb)
	f.recycle(tb)
	f.recorded++
	if f.slow == nil || (ev.Err("err") == nil && (f.slowThreshold <= 0 || ev.Duration < f.slowThreshold)) {
		f.mu.Unlock()
		return
	}
	// Tail capture: copy the tree out while it cannot be evicted, then
	// marshal and write without holding up other requests' spans.
	w, truncated, spans := f.slow, t.truncated, f.eventsLocked(t)
	f.mu.Unlock()
	f.writeSlow(w, ev, truncated, spans)
}

// appendLocked packs ev as tb's next span:
//
//	name      string reference
//	id        varint: ID − root
//	parent    varint: Parent − root (a Parent of 0 is −root)
//	start     varint: Unix ns (zeroStart for the zero Time) − the previous
//	          span's, or − 0 for the first
//	duration  varint
//	attrs     uvarint count, then per attribute a key string reference, a
//	          kind byte and the value (see appendValue)
//
// The differences wrap around, so every value round-trips. A string
// reference is uvarint(2i) for entry i of the intern table, or
// uvarint(2n+1) followed by the n bytes of a string the table does not
// hold.
func (f *FlightRecorder) appendLocked(tb *traceBuf, ev Event) {
	start := int64(zeroStart)
	if !ev.Start.IsZero() {
		start = ev.Start.UnixNano()
	}
	if tb.spans == 0 {
		tb.first = start
	}
	tb.lastOff, tb.lastPrev = len(tb.data), tb.last
	b := f.appendRef(tb.data, ev.Name)
	b = binary.AppendVarint(b, int64(ev.ID-tb.root))
	b = binary.AppendVarint(b, int64(ev.Parent-tb.root))
	b = binary.AppendVarint(b, start-tb.last)
	b = binary.AppendVarint(b, int64(ev.Duration))
	b = binary.AppendUvarint(b, uint64(len(ev.Attrs)))
	for _, a := range ev.Attrs {
		b = f.appendRef(b, a.Key)
		b = tb.appendValue(b, a.Value)
	}
	tb.data = b
	tb.last = start
	tb.spans++
	tb.attrs += len(ev.Attrs)
}

// appendValue packs an attribute's kind byte and value: a string as its
// uvarint length and bytes; an int64 or Duration as a varint; a float64 as
// the high-order bytes of its bits up to the last nonzero one, their count
// in the kind byte's upper bits; a bool in its kind alone; and any other
// value as a uvarint index into the tree's side slice.
func (tb *traceBuf) appendValue(b []byte, v any) []byte {
	switch v := v.(type) {
	case nil:
		return append(b, byte(kindNil))
	case string:
		b = binary.AppendUvarint(append(b, byte(kindString)), uint64(len(v)))
		return append(b, v...)
	case int64:
		return binary.AppendVarint(append(b, byte(kindInt64)), v)
	case float64:
		x := math.Float64bits(v)
		n := 8 - bits.TrailingZeros64(x)/8
		b = append(b, byte(kindFloat64)|byte(n)<<3)
		for i := range n {
			b = append(b, byte(x>>(56-8*i)))
		}
		return b
	case bool:
		if v {
			return append(b, byte(kindTrue))
		}
		return append(b, byte(kindFalse))
	case time.Duration:
		return binary.AppendVarint(append(b, byte(kindDuration)), int64(v))
	}
	tb.other = append(tb.other, v)
	return binary.AppendUvarint(append(b, byte(kindOther)), uint64(len(tb.other)-1))
}

// appendRef appends the string reference for a span name or attribute key:
// its intern-table index, interning it while the table has room, else the
// string itself.
func (f *FlightRecorder) appendRef(b []byte, s string) []byte {
	i, ok := f.nameIdx[s]
	if !ok && len(f.names) < f.maxIntern && len(s) <= f.maxInternLen {
		i, ok = uint32(len(f.names)), true
		s = strings.Clone(s)
		f.names = append(f.names, s)
		f.nameIdx[s] = i
	}
	if ok {
		return binary.AppendUvarint(b, uint64(i)<<1)
	}
	return append(binary.AppendUvarint(b, uint64(len(s))<<1|1), s...)
}

// retireLocked moves tb's packed spans to the end of the ring, evicting the
// oldest tree once the ring holds capacity trees, and returns the tree's
// record. When the bytes do not fit after the newest tree, the trees move
// to the front of the ring, and into a larger one when they do not fit at
// all; once they fill less than half of it, they move into a smaller one.
// A new ring has a quarter of its trees' size to spare.
func (f *FlightRecorder) retireLocked(tb *traceBuf) *treeRec {
	var t *treeRec
	if len(f.trees) < f.capacity {
		f.trees = append(f.trees, treeRec{})
		t = &f.trees[len(f.trees)-1]
		f.next = len(f.trees) % f.capacity
	} else {
		t = &f.trees[f.next]
		f.next = (f.next + 1) % f.capacity
		f.lo += t.size // the oldest tree is the ring's first
	}
	n := len(tb.data)
	if f.hi+n > len(f.ring) {
		size := len(f.ring)
		if live := f.hi - f.lo + n; live > size {
			size = live + live/4
		}
		f.moveLocked(size)
	}
	copy(f.ring[f.hi:], tb.data)
	// The evicted tree's side slice goes to tb, which recycle clears.
	evicted := t.other
	t.treeHead, t.off, t.size = tb.treeHead, f.hi, n
	tb.other = evicted
	f.hi += n
	if live := f.hi - f.lo; live < len(f.ring)/2 {
		f.moveLocked(live + live/4)
	}
	return t
}

// moveLocked moves the retired trees to the front of a ring of size bytes,
// allocating one unless the ring has that size.
func (f *FlightRecorder) moveLocked(size int) {
	ring := f.ring
	if size != len(ring) {
		ring = make([]byte, size)
	}
	copy(ring, f.ring[f.lo:f.hi])
	for i := range f.trees {
		f.trees[i].off -= f.lo
	}
	f.ring, f.lo, f.hi = ring, 0, f.hi-f.lo
}

// treeReader decodes a packed tree.
type treeReader struct {
	f     *FlightRecorder
	b     []byte // the rest of the tree's bytes
	root  uint64
	prev  int64 // the previous span's start
	other []any
}

// reader returns a reader of t's spans from byte off, where the previous
// span started at prev.
func (f *FlightRecorder) reader(t *treeRec, off int, prev int64) treeReader {
	return treeReader{f: f, b: f.ring[t.off+off : t.off+t.size], root: t.root, prev: prev, other: t.other}
}

func (r *treeReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	return x
}

func (r *treeReader) varint() int64 {
	x, n := binary.Varint(r.b)
	r.b = r.b[n:]
	return x
}

// bytes returns the next n bytes as a string.
func (r *treeReader) bytes(n uint64) string {
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// ref decodes a string reference.
func (r *treeReader) ref() string {
	x := r.uvarint()
	if x&1 == 0 {
		return r.f.names[x>>1]
	}
	return r.bytes(x >> 1)
}

// value decodes an attribute value to the dynamic type it was set with.
func (r *treeReader) value() any {
	c := r.b[0]
	r.b = r.b[1:]
	switch attrKind(c & 7) {
	case kindString:
		return r.bytes(r.uvarint())
	case kindInt64:
		return r.varint()
	case kindFloat64:
		var x uint64
		n := int(c >> 3)
		for i, v := range r.b[:n] {
			x |= uint64(v) << (56 - 8*i)
		}
		r.b = r.b[n:]
		return math.Float64frombits(x)
	case kindFalse:
		return false
	case kindTrue:
		return true
	case kindDuration:
		return time.Duration(r.varint())
	case kindOther:
		return r.other[r.uvarint()]
	}
	return nil
}

// event decodes the next span. Its attributes go at the front of attrs, or
// into a new slice when attrs is too short; event returns the rest of
// attrs. A decoded Start has no monotonic clock reading.
func (r *treeReader) event(attrs []Attr) (Event, []Attr) {
	ev := Event{Name: r.ref(), Root: r.root}
	ev.ID = r.root + uint64(r.varint())
	ev.Parent = r.root + uint64(r.varint())
	r.prev += r.varint()
	if r.prev != zeroStart {
		ev.Start = time.Unix(0, r.prev)
	}
	ev.Duration = time.Duration(r.varint())
	n := int(r.uvarint())
	if n == 0 {
		return ev, attrs
	}
	if len(attrs) < n {
		attrs = make([]Attr, n)
	}
	for i := range n {
		attrs[i].Key = r.ref()
		attrs[i].Value = r.value()
	}
	ev.Attrs = attrs[:n:n]
	return ev, attrs[n:]
}

// eventsLocked decodes every span of t, in completion order.
func (f *FlightRecorder) eventsLocked(t *treeRec) []Event {
	r := f.reader(t, 0, 0)
	out := make([]Event, t.spans)
	attrs := make([]Attr, t.attrs)
	for i := range out {
		out[i], attrs = r.event(attrs)
	}
	return out
}

// rootLocked decodes the root of a retired tree: the span that retired it,
// always its last.
func (f *FlightRecorder) rootLocked(t *treeRec) Event {
	r := f.reader(t, t.lastOff, t.lastPrev)
	ev, _ := r.event(nil)
	return ev
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
		if oldest == nil || tb.first < oldest.first {
			oldest, key = tb, root
		}
	}
	f.dropped += uint64(oldest.spans)
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
	out := make([]TraceSummary, 0, len(f.trees))
	// Newest is the slot before f.next (once full); before wrap, the slots
	// are append-ordered so newest is the last element.
	n := len(f.trees)
	for i := 1; i <= n; i++ {
		t := &f.trees[((f.next-i)%n+n)%n]
		root := f.rootLocked(t)
		sum := TraceSummary{
			Root:      t.root,
			Name:      root.Name,
			RequestID: root.Str("request_id"),
			TS:        root.Start,
			Nanos:     int64(root.Duration),
			Spans:     t.spans,
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
	for i := range f.trees {
		t := &f.trees[i]
		root := f.rootLocked(t)
		if t.root != rootID && (id == "" || root.Str("request_id") != id) {
			continue
		}
		return &Trace{
			Root:      t.root,
			RequestID: root.Str("request_id"),
			Spans:     f.eventsLocked(t),
			Truncated: t.truncated,
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
	// the free list hold: the byte ring, the tree records, the free tree
	// buffers and the side slices (the values the side slices point to are
	// not counted).
	RetainedBytes int64 `json:"retained_bytes"`
}

// Stats returns the recorder's counters.
func (f *FlightRecorder) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	retained := cap(f.ring) + cap(f.trees)*treeRecBytes
	for _, t := range f.trees {
		retained += cap(t.other) * anyBytes
	}
	for _, tb := range f.free {
		retained += cap(tb.data) + cap(tb.other)*anyBytes
	}
	return FlightStats{
		Recorded:      f.recorded,
		Retained:      len(f.trees),
		Pending:       len(f.pending),
		Dropped:       f.dropped,
		SlowRecords:   f.slowCount.Load(),
		SlowErrors:    f.slowErrs.Load(),
		RetainedBytes: int64(retained),
	}
}
