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
