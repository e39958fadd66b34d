package incr

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadSessionBundle checks that arbitrary input never panics the bundle
// reader, and that every bundle it accepts survives a write and a re-read
// unchanged: Read(Write(Read(x))) = Read(x). The first seed is a small
// generated bundle (mc3gen -dataset synthetic -n 20 -deltas -delta-events 12
// -sessions 2 -seed 3).
func FuzzReadSessionBundle(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "sessions.txt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add("0 add a,b\n# session s\n1 cost a +Inf\n")
	f.Add("# session a\n# session b\n2.5 rm x\n")
	f.Add("# session \n")
	f.Add("")

	f.Fuzz(func(t *testing.T, data string) {
		first, err := ReadSessionBundle(strings.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteSessionBundle(&buf, first); err != nil {
			t.Fatalf("accepted bundle does not write back: %v\ninput: %q", err, data)
		}
		second, err := ReadSessionBundle(&buf)
		if err != nil {
			t.Fatalf("written bundle does not read back: %v\nwritten: %q", err, buf.String())
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip changed the bundle:\nfirst:  %+v\nsecond: %+v", first, second)
		}
	})
}

// FuzzReadDeltaStream checks that arbitrary input never panics the delta
// stream reader, that every stream it accepts survives a write and a
// re-read unchanged (Read(Write(Read(x))) = Read(x)), and that any single
// delta the writer accepts reads back deeply equal. The delta is built from
// the fuzzed time, op, cost and NUL-separated property names; the seeds
// carry the white-space runes besides space, tab and newline that the
// reader splits on.
func FuzzReadDeltaStream(f *testing.F) {
	f.Add("0 add a,b\n1 rm a,b\n2.5 cost a +Inf\n", 0.0, uint8(OpAdd), "a", 0.0)
	f.Add("# comment\n\n 3 update-cost x 4 \n", 1.5, uint8(OpUpdateCost), "x\x00y", 4.0)
	for _, r := range []string{"\r", "\v", "\f", "\u0085", "\u00a0"} {
		f.Add("0 add a"+r+"b\n", 0.0, uint8(OpAdd), "a"+r+"b", 0.0)
	}
	f.Fuzz(func(t *testing.T, data string, tm float64, op uint8, props string, cost float64) {
		if first, err := ReadDeltaStream(strings.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := WriteDeltaStream(&buf, first); err != nil {
				t.Fatalf("accepted stream does not write back: %v\ninput: %q", err, data)
			}
			second, err := ReadDeltaStream(&buf)
			if err != nil {
				t.Fatalf("written stream does not read back: %v\nwritten: %q", err, buf.String())
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("round trip changed the stream:\nfirst:  %+v\nsecond: %+v", first, second)
			}
		}

		d := Delta{Time: tm, Op: Op(op), Props: strings.Split(props, "\x00"), Cost: cost}
		var buf bytes.Buffer
		if err := WriteDeltaStream(&buf, []Delta{d}); err != nil {
			return // refused deltas are fine
		}
		written := buf.String()
		got, err := ReadDeltaStream(strings.NewReader(written))
		if err != nil {
			t.Fatalf("written delta %+v does not read back: %v\nwritten: %q", d, err, written)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], d) {
			t.Fatalf("delta %+v read back as %+v", d, got)
		}
	})
}
