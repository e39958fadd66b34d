package incr

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Delta stream text format, one event per line:
//
//	<time> add  <p1,p2,...>
//	<time> rm   <p1,p2,...>
//	<time> cost <p1,p2,...> <cost>
//
// Fields are whitespace-separated (property names contain neither spaces
// nor commas); times are seconds from stream start, non-decreasing by
// convention but not enforced. Blank lines and lines starting with '#' are
// ignored. mc3gen -deltas writes this format and mc3replay consumes it.

// ReadDeltaStream parses a delta stream. Errors carry the 1-based line
// number.
func ReadDeltaStream(r io.Reader) ([]Delta, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
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
// parses.
func WriteDeltaStream(w io.Writer, deltas []Delta) error {
	bw := bufio.NewWriter(w)
	for i, d := range deltas {
		if len(d.Props) == 0 {
			return fmt.Errorf("incr: delta %d: no properties", i)
		}
		for _, p := range d.Props {
			if p == "" || strings.ContainsAny(p, ", \t\n") {
				return fmt.Errorf("incr: delta %d: property %q not representable in the stream format", i, p)
			}
		}
		var err error
		switch d.Op {
		case OpUpdateCost:
			_, err = fmt.Fprintf(bw, "%g %s %s %g\n", d.Time, d.Op, strings.Join(d.Props, ","), d.Cost)
		case OpAdd, OpRemove:
			_, err = fmt.Fprintf(bw, "%g %s %s\n", d.Time, d.Op, strings.Join(d.Props, ","))
		default:
			err = fmt.Errorf("incr: delta %d: unknown op %d", i, d.Op)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
