package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// refFlightRecorder is the flight recorder as it was before trees were kept
// as pointer-free bytes: each tree is a slice of Events whose Attrs are
// copied slot by slot. It is the reference FuzzFlightRecorderDifferential
// and TestFlightRingFootprint compare FlightRecorder with. Its Stats leave
// RetainedBytes zero.
type refFlightRecorder struct {
	capacity int
	maxSpans int

	mu      sync.Mutex
	pending map[uint64]*refTraceBuf
	free    []*refTraceBuf
	ring    []*refTraceBuf
	next    int

	slow          io.Writer
	slowThreshold time.Duration

	recorded  uint64
	dropped   uint64
	slowCount uint64
	slowErrs  uint64
}

type refTraceBuf struct {
	root      uint64
	spans     []Event
	truncated int
}

func newRefFlightRecorder(capacity int) *refFlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return &refFlightRecorder{
		capacity: capacity,
		maxSpans: defaultMaxSpans,
		pending:  make(map[uint64]*refTraceBuf),
		ring:     make([]*refTraceBuf, 0, capacity),
	}
}

func (f *refFlightRecorder) SetSlowLog(w io.Writer, threshold time.Duration) {
	f.mu.Lock()
	f.slow = w
	f.slowThreshold = threshold
	f.mu.Unlock()
}

func (f *refFlightRecorder) maxPending() int {
	if n := 2 * f.capacity; n > 64 {
		return n
	}
	return 64
}

func (f *refFlightRecorder) take(root uint64) *refTraceBuf {
	var tb *refTraceBuf
	if n := len(f.free); n > 0 {
		tb = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		tb = new(refTraceBuf)
	}
	tb.root = root
	tb.spans = tb.spans[:0]
	tb.truncated = 0
	return tb
}

func (tb *refTraceBuf) appendEvent(ev Event) {
	var dst *Event
	if n := len(tb.spans); n < cap(tb.spans) {
		tb.spans = tb.spans[:n+1]
		dst = &tb.spans[n]
	} else {
		tb.spans = append(tb.spans, Event{})
		dst = &tb.spans[len(tb.spans)-1]
	}
	attrs := dst.Attrs
	*dst = ev
	dst.Attrs = append(attrs[:0], ev.Attrs...)
}

func (f *refFlightRecorder) Span(ev Event) {
	f.mu.Lock()
	tb := f.pending[ev.Root]
	if tb == nil {
		if len(f.pending) >= f.maxPending() {
			f.evictOldestPendingLocked()
		}
		tb = f.take(ev.Root)
		f.pending[ev.Root] = tb
	}
	if len(tb.spans) >= f.maxSpans && ev.ID != ev.Root {
		tb.truncated++
		f.dropped++
		f.mu.Unlock()
		return
	}
	tb.appendEvent(ev)
	if ev.ID != ev.Root {
		f.mu.Unlock()
		return
	}
	delete(f.pending, ev.Root)
	if len(f.ring) < f.capacity {
		f.ring = append(f.ring, tb)
		f.next = len(f.ring) % f.capacity
	} else {
		f.free = append(f.free, f.ring[f.next])
		f.ring[f.next] = tb
		f.next = (f.next + 1) % f.capacity
	}
	f.recorded++
	if f.slow != nil && (ev.Err("err") != nil || (f.slowThreshold > 0 && ev.Duration >= f.slowThreshold)) {
		f.writeSlowLocked(tb, ev)
	}
	f.mu.Unlock()
}

func (f *refFlightRecorder) evictOldestPendingLocked() {
	var (
		oldest *refTraceBuf
		key    uint64
	)
	for root, tb := range f.pending {
		if len(tb.spans) == 0 {
			oldest, key = tb, root
			break
		}
		if oldest == nil || len(oldest.spans) == 0 || tb.spans[0].Start.Before(oldest.spans[0].Start) {
			oldest, key = tb, root
		}
	}
	if oldest == nil {
		return
	}
	f.dropped += uint64(len(oldest.spans))
	delete(f.pending, key)
	f.free = append(f.free, oldest)
}

func (f *refFlightRecorder) writeSlowLocked(tb *refTraceBuf, root Event) {
	rec := slowRecord{
		Kind:      "slow",
		RequestID: root.Str("request_id"),
		Root:      root.Root,
		Name:      root.Name,
		TS:        root.Start,
		Nanos:     int64(root.Duration),
		Truncated: tb.truncated,
		Spans:     jsonSpans(tb.spans),
	}
	if err := root.Err("err"); err != nil {
		rec.Kind = "error"
		rec.Err = err.Error()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.slowErrs++
		return
	}
	if _, err := f.slow.Write(append(line, '\n')); err != nil {
		f.slowErrs++
		return
	}
	f.slowCount++
}

func (f *refFlightRecorder) Snapshot() []TraceSummary {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]TraceSummary, 0, len(f.ring))
	n := len(f.ring)
	for i := 1; i <= n; i++ {
		tb := f.ring[((f.next-i)%n+n)%n]
		root := tb.rootLocked()
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

func (tb *refTraceBuf) rootLocked() Event {
	for i := len(tb.spans) - 1; i >= 0; i-- {
		if tb.spans[i].ID == tb.spans[i].Root {
			return tb.spans[i]
		}
	}
	return Event{}
}

func (f *refFlightRecorder) Trace(id string) (*Trace, bool) {
	rootID, _ := strconv.ParseUint(id, 10, 64)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, tb := range f.ring {
		root := tb.rootLocked()
		if tb.root != rootID && (id == "" || root.Str("request_id") != id) {
			continue
		}
		t := &Trace{
			Root:      tb.root,
			RequestID: root.Str("request_id"),
			Spans:     make([]Event, len(tb.spans)),
			Truncated: tb.truncated,
		}
		for i, ev := range tb.spans {
			ev.Attrs = append([]Attr(nil), ev.Attrs...)
			t.Spans[i] = ev
		}
		return t, true
	}
	return nil, false
}

func (f *refFlightRecorder) Stats() FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FlightStats{
		Recorded:    f.recorded,
		Retained:    len(f.ring),
		Pending:     len(f.pending),
		Dropped:     f.dropped,
		SlowRecords: f.slowCount,
		SlowErrors:  f.slowErrs,
	}
}
