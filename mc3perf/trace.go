package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// spanRec is one finished span of the traced run, kept in memory until the
// run ends. Names read "<layer>.<function>": the layer is the module whose
// public function the benchmark called. A span whose duration was reported
// by the program (a SolveStats phase time) rather than timed around a call
// has Aggregate set; its Start is its parent's.
type spanRec struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent,omitempty"`
	Op        int     `json:"op"`
	Name      string  `json:"name"`
	StartMS   float64 `json:"start_ms"`
	DurMS     float64 `json:"dur_ms"`
	Aggregate bool    `json:"aggregate,omitempty"`
	// Concurrent marks work that ran beside the serial op path (the
	// streamed solve's background component workers). It is reported
	// but subtracted neither from its parent's self time nor from the
	// wall.
	Concurrent bool `json:"concurrent,omitempty"`
}

// spanLog records spans from one goroutine: every traced phase of the
// benchmark calls the layers serially.
type spanLog struct {
	t0   time.Time
	op   int
	recs []spanRec
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) since() float64 { return float64(time.Since(l.t0)) / 1e6 }

// beginOp opens the root span of the next op and returns its ID.
func (l *spanLog) beginOp() int {
	l.op++
	return l.open(0, "op")
}

// open starts a span under parent (0 for a root) and returns its ID.
func (l *spanLog) open(parent int, name string) int {
	l.recs = append(l.recs, spanRec{ID: len(l.recs) + 1, Parent: parent, Op: l.op, Name: name, StartMS: l.since()})
	return len(l.recs)
}

// close ends span id.
func (l *spanLog) close(id int) {
	r := &l.recs[id-1]
	r.DurMS = l.since() - r.StartMS
}

// addAggregate records a child of parent whose duration the program
// reported.
func (l *spanLog) addAggregate(parent int, name string, d time.Duration, concurrent bool) {
	start := 0.0
	if parent > 0 {
		start = l.recs[parent-1].StartMS
	}
	l.recs = append(l.recs, spanRec{
		ID: len(l.recs) + 1, Parent: parent, Op: l.op, Name: name,
		StartMS: start, DurMS: float64(d) / 1e6, Aggregate: true, Concurrent: concurrent,
	})
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range l.recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow aggregates every span of one name.
type layerRow struct {
	Name       string
	Calls      int
	TotalMS    float64
	SelfMS     float64
	Concurrent bool
}

// layerTable is the traced run's time split: each span name's total and self
// time (its duration minus its children's), the unexplained remainder (wall
// minus the self time of every layer span; the root "op" spans are the
// benchmark's own loop) and the tracing overhead (traced wall minus the wall
// of the same ops run without spans).
type layerTable struct {
	Ops         int
	WallMS      float64
	UntracedMS  float64
	Rows        []layerRow
	Unexplained float64
}

func (l *spanLog) table(wallMS, untracedMS float64) *layerTable {
	childMS := make(map[int]float64)
	for _, r := range l.recs {
		if r.Parent > 0 && !r.Concurrent {
			childMS[r.Parent] += r.DurMS
		}
	}
	rows := map[string]*layerRow{}
	var order []string
	layersMS := 0.0
	for _, r := range l.recs {
		row, ok := rows[r.Name]
		if !ok {
			row = &layerRow{Name: r.Name, Concurrent: r.Concurrent}
			rows[r.Name] = row
			order = append(order, r.Name)
		}
		self := r.DurMS - childMS[r.ID]
		row.Calls++
		row.TotalMS += r.DurMS
		row.SelfMS += self
		if r.Name != "op" && !r.Concurrent {
			layersMS += self
		}
	}
	t := &layerTable{Ops: l.op, WallMS: wallMS, UntracedMS: untracedMS, Unexplained: wallMS - layersMS}
	for _, name := range order {
		t.Rows = append(t.Rows, *rows[name])
	}
	return t
}

// overheadMS is the tracing overhead: traced wall minus untraced wall.
func (t *layerTable) overheadMS() float64 { return t.WallMS - t.UntracedMS }

func (t *layerTable) render(w io.Writer) {
	fmt.Fprintf(w, "layer table: %d ops, traced wall %.3f ms, untraced wall %.3f ms\n", t.Ops, t.WallMS, t.UntracedMS)
	fmt.Fprintf(w, "  %-34s %-8s %7s %12s %12s %12s %7s\n", "span", "layer", "calls", "total_ms", "self_ms", "self_ms/op", "share")
	for _, r := range t.Rows {
		layer, _, _ := strings.Cut(r.Name, ".")
		if r.Name == "op" {
			layer = "bench"
		}
		note := ""
		if r.Concurrent {
			note = " (concurrent, not in wall)"
		}
		fmt.Fprintf(w, "  %-34s %-8s %7d %12.3f %12.3f %12.4f %6.1f%%%s\n",
			r.Name, layer, r.Calls, r.TotalMS, r.SelfMS, r.SelfMS/float64(max(t.Ops, 1)), 100*r.SelfMS/t.WallMS, note)
	}
	fmt.Fprintf(w, "  %-34s %-8s %7s %12s %12.3f %12.4f %6.1f%%\n", "unexplained (wall - layers)", "", "", "",
		t.Unexplained, t.Unexplained/float64(max(t.Ops, 1)), 100*t.Unexplained/t.WallMS)
	fmt.Fprintf(w, "  %-34s %-8s %7s %12s %12.3f %12.4f %6.1f%%\n", "tracing overhead (traced - untraced)", "", "", "",
		t.overheadMS(), t.overheadMS()/float64(max(t.Ops, 1)), 100*t.overheadMS()/t.UntracedMS)
}
