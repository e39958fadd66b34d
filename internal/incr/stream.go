package incr

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Delta stream text format, one event per line:
//
//	<time> add  <p1,p2,...>
//	<time> rm   <p1,p2,...>
//	<time> cost <p1,p2,...> <cost>
//
// Fields are separated by white space (any rune unicode.IsSpace reports,
// so property names contain neither white space nor commas); times are
// seconds from stream start, non-decreasing by convention but not
// enforced. Blank lines and lines starting with '#' are
// ignored. mc3gen -deltas writes this format and mc3replay consumes it.

// maxLine bounds a line of the stream and bundle formats, newline included.
const maxLine = 4 * 1024 * 1024

// ReadDeltaStream parses a delta stream. Errors carry the 1-based line
// number.
func ReadDeltaStream(r io.Reader) ([]Delta, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var out []Delta
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		d, err := parseDeltaLine(text)
		if err != nil {
			return nil, fmt.Errorf("incr: line %d: %w", line, err)
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("incr: reading delta stream: %w", err)
	}
	return out, nil
}

// parseDeltaLine parses one delta line of the stream format: trimmed,
// neither blank nor a comment. Its errors carry no position; the readers
// add the line number.
func parseDeltaLine(text string) (Delta, error) {
	fields := strings.Fields(text)
	if len(fields) < 3 {
		return Delta{}, fmt.Errorf("want \"<time> <op> <props> [cost]\", got %d field(s)", len(fields))
	}
	t, err := strconv.ParseFloat(fields[0], 64)
	if err != nil || math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return Delta{}, fmt.Errorf("bad time %q", fields[0])
	}
	op, err := ParseOp(fields[1])
	if err != nil {
		return Delta{}, fmt.Errorf("unknown op %q", fields[1])
	}
	props, err := splitProps(fields[2])
	if err != nil {
		return Delta{}, err
	}
	d := Delta{Time: t, Op: op, Props: props}
	switch op {
	case OpUpdateCost:
		if len(fields) != 4 {
			return Delta{}, fmt.Errorf("cost op wants 4 fields, got %d", len(fields))
		}
		c, err := strconv.ParseFloat(fields[3], 64)
		if err != nil || math.IsNaN(c) || c < 0 {
			return Delta{}, fmt.Errorf("bad cost %q", fields[3])
		}
		d.Cost = c
	default:
		if len(fields) != 3 {
			return Delta{}, fmt.Errorf("%s op wants 3 fields, got %d", op, len(fields))
		}
	}
	return d, nil
}

// splitProps parses a comma-separated property list, rejecting empties.
func splitProps(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("empty property in %q", s)
		}
	}
	return parts, nil
}

// WriteDeltaStream writes deltas in the stream text format ReadDeltaStream
// parses. It refuses any delta that would not read back equal: an empty
// or white-space- or comma-holding property name, a negative or non-finite
// time, a negative or NaN re-pricing cost, a cost on an add or remove, or a
// line longer than the reader takes.
func WriteDeltaStream(w io.Writer, deltas []Delta) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i, d := range deltas {
		if len(d.Props) == 0 {
			return fmt.Errorf("incr: delta %d: no properties", i)
		}
		for _, p := range d.Props {
			if p == "" || strings.ContainsRune(p, ',') || strings.IndexFunc(p, unicode.IsSpace) >= 0 {
				return fmt.Errorf("incr: delta %d: property %q not representable in the stream format", i, p)
			}
		}
		if math.IsNaN(d.Time) || math.IsInf(d.Time, 0) || d.Time < 0 {
			return fmt.Errorf("incr: delta %d: time %g not representable in the stream format", i, d.Time)
		}
		switch {
		case d.Op == OpUpdateCost && d.Cost >= 0: // false for NaN
			line = fmt.Appendf(line[:0], "%g %s %s %g\n", d.Time, d.Op, strings.Join(d.Props, ","), d.Cost)
		case (d.Op == OpAdd || d.Op == OpRemove) && d.Cost == 0:
			line = fmt.Appendf(line[:0], "%g %s %s\n", d.Time, d.Op, strings.Join(d.Props, ","))
		case d.Op > OpUpdateCost:
			return fmt.Errorf("incr: delta %d: unknown op %d", i, d.Op)
		default:
			return fmt.Errorf("incr: delta %d: cost %g not representable on a %s delta", i, d.Cost, d.Op)
		}
		if len(line) > maxLine {
			return fmt.Errorf("incr: delta %d: line of %d bytes exceeds the stream format's %d", i, len(line), maxLine)
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
