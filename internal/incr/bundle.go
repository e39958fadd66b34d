package incr

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Session bundle text format: a delta stream partitioned into named
// sessions by marker lines
//
//	# session <name>
//
// Every delta line belongs to the most recently opened session. The markers
// reuse the stream format's comment syntax, so a bundle fed to
// ReadDeltaStream degrades gracefully to the concatenation of all sessions'
// deltas, and a plain delta stream read by ReadSessionBundle becomes a
// single session named "default". mc3gen -sessions writes this format and
// the cluster replay harness (mc3replay -cluster) consumes it, one
// mc3serve session per bundle session.

// SessionStream is one named session's delta stream within a bundle.
type SessionStream struct {
	Name   string
	Deltas []Delta
}

// sessionMarker is the bundle marker prefix (after "# " comment trimming).
const sessionMarker = "# session "

// ReadSessionBundle parses a session bundle. Deltas before the first marker
// (including an entire marker-less stream) form a session named "default".
// Duplicate session names are an error, as are names WriteSessionBundle
// could not write back; sessions keep file order. Errors carry the 1-based
// line number in the file.
func ReadSessionBundle(r io.Reader) ([]SessionStream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var (
		out  []SessionStream
		seen = map[string]bool{}
		line int
	)
	open := func(name string) error {
		if seen[name] {
			return fmt.Errorf("incr: line %d: duplicate session %q", line, name)
		}
		seen[name] = true
		out = append(out, SessionStream{Name: name})
		return nil
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		// TrimSpace erases the trailing space of a nameless "# session "
		// line, so match the trimmed marker too: it must be rejected, not
		// skipped as a comment.
		if name, ok := strings.CutPrefix(text, sessionMarker); ok || text == strings.TrimSpace(sessionMarker) {
			if !ok {
				name = ""
			}
			name = strings.TrimSpace(name)
			if name == "" {
				return nil, fmt.Errorf("incr: line %d: session marker without a name", line)
			}
			// The scanner splits lines at '\n' only, so a '\r' can sit
			// inside a name; such a name cannot be written back.
			if strings.Contains(name, "\r") {
				return nil, fmt.Errorf("incr: line %d: session name %q contains a carriage return", line, name)
			}
			if err := open(name); err != nil {
				return nil, err
			}
			continue
		}
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if len(out) == 0 {
			if err := open("default"); err != nil {
				return nil, err
			}
		}
		cur := &out[len(out)-1]
		d, err := parseDeltaLine(text)
		if err != nil {
			return nil, fmt.Errorf("incr: session %q: line %d: %w", cur.Name, line, err)
		}
		cur.Deltas = append(cur.Deltas, d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("incr: reading session bundle: %w", err)
	}
	return out, nil
}

// WriteSessionBundle writes sessions in the bundle text format
// ReadSessionBundle parses. Session names must be non-empty, distinct, free
// of newlines, and neither start nor end with white space.
func WriteSessionBundle(w io.Writer, sessions []SessionStream) error {
	seen := make(map[string]bool, len(sessions))
	bw := bufio.NewWriter(w)
	for i, s := range sessions {
		if s.Name == "" || strings.ContainsAny(s.Name, "\r\n") || strings.TrimSpace(s.Name) != s.Name {
			return fmt.Errorf("incr: session %d: bad name %q", i, s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("incr: duplicate session %q", s.Name)
		}
		seen[s.Name] = true
		if _, err := fmt.Fprintf(bw, "%s%s\n", sessionMarker, s.Name); err != nil {
			return err
		}
		if err := WriteDeltaStream(bw, s.Deltas); err != nil {
			return fmt.Errorf("incr: session %q: %w", s.Name, err)
		}
	}
	return bw.Flush()
}
