package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sync"
	"time"
)

// JSONLSink writes one JSON object per completed span — the machine-readable
// trace format (JSON lines). Each line carries the span name, IDs, start
// timestamp, duration in nanoseconds, and the attributes:
//
//	{"name":"prep","id":3,"parent":1,"ts":"…","ns":52100,"attrs":{"level":"full"}}
//
// Errors and non-marshalable attribute values are rendered as strings. Write
// errors are counted (see Dropped) rather than propagated: tracing must
// never fail a solve.
type JSONLSink struct {
	mu      sync.Mutex
	w       io.Writer
	dropped int
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// jsonSpan is the serialized form of one span event.
type jsonSpan struct {
	Name   string         `json:"name"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	TS     time.Time      `json:"ts"`
	Nanos  int64          `json:"ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Span implements Sink.
func (s *JSONLSink) Span(ev Event) {
	doc := jsonSpan{
		Name:   ev.Name,
		ID:     ev.ID,
		Parent: ev.Parent,
		TS:     ev.Start,
		Nanos:  int64(ev.Duration),
	}
	if len(ev.Attrs) > 0 {
		doc.Attrs = make(map[string]any, len(ev.Attrs))
		for _, a := range ev.Attrs {
			doc.Attrs[a.Key] = jsonValue(a.Value)
		}
	}
	line, err := json.Marshal(doc)
	if err != nil {
		// Defensive: jsonValue should have stringified anything hostile.
		line, _ = json.Marshal(jsonSpan{Name: ev.Name, ID: ev.ID, Parent: ev.Parent, TS: ev.Start, Nanos: int64(ev.Duration)})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		s.dropped++
	}
}

// Dropped returns the number of spans lost to write errors.
func (s *JSONLSink) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// jsonValue converts an attribute value into something json.Marshal accepts
// losslessly: errors and durations become strings, and so do the floats
// JSON has no number for ("+Inf", "-Inf", "NaN"); marshal failures fall
// back to fmt formatting.
func jsonValue(v any) any {
	switch x := v.(type) {
	case error:
		return x.Error()
	case time.Duration:
		return x.String()
	case float64:
		switch {
		case math.IsInf(x, 1):
			return "+Inf"
		case math.IsInf(x, -1):
			return "-Inf"
		case math.IsNaN(x):
			return "NaN"
		}
		return x
	case string, bool, int64, nil:
		return x
	}
	if _, err := json.Marshal(v); err != nil {
		return fmt.Sprint(v)
	}
	return v
}

// SlogSink renders completed spans through a *slog.Logger — the
// human-readable trace view. Span attributes appear in an "attrs" group.
type SlogSink struct {
	l *slog.Logger
}

// NewSlogSink returns a sink logging to l (slog.Default() when l is nil).
func NewSlogSink(l *slog.Logger) *SlogSink {
	if l == nil {
		l = slog.Default()
	}
	return &SlogSink{l: l}
}

// Span implements Sink.
func (s *SlogSink) Span(ev Event) {
	args := make([]any, 0, 4+len(ev.Attrs))
	args = append(args,
		slog.Uint64("id", ev.ID),
		slog.Uint64("parent", ev.Parent),
		slog.Duration("dur", ev.Duration),
	)
	if len(ev.Attrs) > 0 {
		group := make([]any, 0, len(ev.Attrs))
		for _, a := range ev.Attrs {
			group = append(group, slog.Any(a.Key, jsonValue(a.Value)))
		}
		args = append(args, slog.Group("attrs", group...))
	}
	s.l.With(args...).Info("span " + ev.Name)
}
