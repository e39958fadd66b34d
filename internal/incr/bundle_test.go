package incr

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSessionBundleRoundTrip(t *testing.T) {
	in := []SessionStream{
		{Name: "alpha", Deltas: []Delta{
			{Time: 0, Op: OpAdd, Props: []string{"a", "b"}},
			{Time: 0.5, Op: OpUpdateCost, Props: []string{"a"}, Cost: 3},
		}},
		{Name: "beta", Deltas: []Delta{
			{Time: 0, Op: OpAdd, Props: []string{"c"}},
			{Time: 1, Op: OpRemove, Props: []string{"c"}},
		}},
	}
	var buf bytes.Buffer
	if err := WriteSessionBundle(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSessionBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// TestSessionBundleBackwardCompatible: a plain delta stream reads as one
// "default" session, and a bundle fed to ReadDeltaStream degrades to the
// concatenation of all sessions (markers are comments).
func TestSessionBundleBackwardCompatible(t *testing.T) {
	plain := "0 add a,b\n1 cost a 2\n"
	sessions, err := ReadSessionBundle(strings.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Name != "default" || len(sessions[0].Deltas) != 2 {
		t.Fatalf("plain stream parsed as %+v, want one default session with 2 deltas", sessions)
	}

	bundle := "# session s1\n0 add a\n# session s2\n0 add b\n1 rm b\n"
	deltas, err := ReadDeltaStream(strings.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("bundle read as plain stream has %d deltas, want 3 (markers must read as comments)", len(deltas))
	}
}

func TestSessionBundleErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"duplicate session", "# session a\n0 add x\n# session a\n0 add y\n"},
		{"unnamed marker", "# session \n0 add x\n"},
		{"bad delta line", "# session a\n0 bogus x\n"},
	}
	for _, tc := range cases {
		if _, err := ReadSessionBundle(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	var buf bytes.Buffer
	if err := WriteSessionBundle(&buf, []SessionStream{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate session name written without error")
	}
	if err := WriteSessionBundle(&buf, []SessionStream{{Name: "bad\nname"}}); err == nil {
		t.Error("newline in session name written without error")
	}
}

// TestReadSessionBundleErrorNamesFileLine: a bad delta line is reported with
// its session and its line number in the file, under one "incr:" prefix.
func TestReadSessionBundleErrorNamesFileLine(t *testing.T) {
	in := "# session a\n0 add x\n1 add y\n\n# session b\n0 add x\n# comment\n1 bogus p\n"
	_, err := ReadSessionBundle(strings.NewReader(in))
	const want = `incr: session "b": line 8: unknown op "bogus"`
	if err == nil || err.Error() != want {
		t.Fatalf("got error %v, want %q", err, want)
	}
}

// TestReadSessionBundleRejectsUnwritableName: a session name that
// WriteSessionBundle would refuse (a carriage return inside it) is rejected
// on read too.
func TestReadSessionBundleRejectsUnwritableName(t *testing.T) {
	if got, err := ReadSessionBundle(strings.NewReader("# session a\rb\n0 add x\n")); err == nil {
		t.Fatalf("name with a carriage return accepted: %+v", got)
	}
}
