package incr

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestDeltaStreamRoundTrip(t *testing.T) {
	in := []Delta{
		{Time: 0, Op: OpAdd, Props: []string{"color:red", "brand:apple"}},
		{Time: 0.5, Op: OpAdd, Props: []string{"color:red"}},
		{Time: 1.25, Op: OpUpdateCost, Props: []string{"color:red"}, Cost: 12.5},
		{Time: 2, Op: OpRemove, Props: []string{"color:red", "brand:apple"}},
	}
	var buf bytes.Buffer
	if err := WriteDeltaStream(&buf, in); err != nil {
		t.Fatalf("WriteDeltaStream: %v", err)
	}
	out, err := ReadDeltaStream(&buf)
	if err != nil {
		t.Fatalf("ReadDeltaStream: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in: %+v\nout: %+v", in, out)
	}
}

func TestReadDeltaStreamTolerance(t *testing.T) {
	src := "# header comment\n\n  0 add a,b  \n1 remove a,b\n2 ADD c\n3 update-cost c 4\n"
	ds, err := ReadDeltaStream(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadDeltaStream: %v", err)
	}
	if len(ds) != 4 {
		t.Fatalf("want 4 deltas, got %d: %+v", len(ds), ds)
	}
	if ds[1].Op != OpRemove || ds[2].Op != OpAdd || ds[3].Op != OpUpdateCost || ds[3].Cost != 4 {
		t.Fatalf("parsed: %+v", ds)
	}
}

func TestReadDeltaStreamErrorsCarryLineNumbers(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"0 add\n", "line 1"},
		{"0 add a\nx add b\n", "line 2"},
		{"0 frobnicate a\n", "line 1"},
		{"0 add a,,b\n", "empty property"},
		{"0 cost a\n", "4 fields"},
		{"0 cost a nope\n", "bad cost"},
		{"-1 add a\n", "bad time"},
		{"0 add a extra\n", "3 fields"},
	} {
		_, err := ReadDeltaStream(strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadDeltaStream(%q): got %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestWriteDeltaStreamRejectsUnrepresentable(t *testing.T) {
	for _, d := range []Delta{
		{Op: OpAdd},
		Add("a b"),
		Add("a,b"),
		Add(""),
		// White space the reader splits on, beyond space, tab and newline.
		Add("a\rb"), Add("a\vb"), Add("a\fb"), Add("a\u0085b"), Add("a\u00a0b"), Add("a\u3000b"),
		{Time: -1, Op: OpAdd, Props: []string{"a"}},
		{Time: math.NaN(), Op: OpAdd, Props: []string{"a"}},
		{Time: math.Inf(1), Op: OpAdd, Props: []string{"a"}},
		UpdateCost(-1, "a"),
		UpdateCost(math.NaN(), "a"),
		{Op: OpAdd, Props: []string{"a"}, Cost: 2},
		{Op: OpRemove, Props: []string{"a"}, Cost: 2},
		{Op: OpUpdateCost + 1, Props: []string{"a"}},
	} {
		var buf bytes.Buffer
		if err := WriteDeltaStream(&buf, []Delta{d}); err == nil {
			t.Errorf("%+v accepted, written as %q", d, buf.String())
		}
	}
}

// TestWriteDeltaStreamLineBound: a line the reader takes writes and reads
// back; one byte more is refused by the writer.
func TestWriteDeltaStreamLineBound(t *testing.T) {
	fits := Add(strings.Repeat("p", maxLine-len("0 add \n")))
	var buf bytes.Buffer
	if err := WriteDeltaStream(&buf, []Delta{fits}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDeltaStream(&buf)
	if err != nil || !reflect.DeepEqual(got, []Delta{fits}) {
		t.Fatalf("a %d-byte line did not read back: %v", maxLine, err)
	}
	long := Add(fits.Props[0] + "p")
	if err := WriteDeltaStream(&bytes.Buffer{}, []Delta{long}); err == nil {
		t.Fatal("a line longer than the reader takes was accepted")
	}
}
