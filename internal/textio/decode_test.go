package textio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/workload"
)

// refRead is Read as it was first written, a reflective encoding/json
// decode: the reference the scanner must match.
func refRead(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("textio: %w", err)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// readVia decodes data the way Read does, but through the reader wrap puts
// around it and a buffer of size win.
func readVia(data string, wrap func(io.Reader) io.Reader, win int) (*File, error) {
	f, err := decode(wrap(strings.NewReader(data)), win)
	if err != nil {
		return nil, err
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// repeatsField reports whether data's top-level object names a field twice,
// comparing names the way encoding/json matches them to fields.
func repeatsField(data string) bool {
	dec := json.NewDecoder(strings.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		for _, k := range keys {
			if strings.EqualFold(k, key) {
				return true
			}
		}
		keys = append(keys, key)
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return false
		}
	}
	return false
}

// checkDifferential decodes data with Read and with refRead: either both
// reject it, or both accept it with deeply equal Files, except that Read
// rejects a repeated top-level field that refRead merges. Read through a
// one-byte reader, a reader that returns EOF with the last bytes, and a
// tiny growing buffer must give exactly what Read gives, error included.
func checkDifferential(t *testing.T, data string) {
	t.Helper()
	got, err := Read(strings.NewReader(data))
	want, refErr := refRead(strings.NewReader(data))
	switch {
	case err != nil && refErr != nil:
	case err == nil && refErr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("input %q:\nRead    %#v\nrefRead %#v", data, got, want)
		}
	case err != nil && strings.Contains(err.Error(), "given twice") && repeatsField(data):
	default:
		t.Fatalf("input %q: Read error %v, refRead error %v", data, err, refErr)
	}
	for name, via := range map[string]func() (*File, error){
		"one-byte reads": func() (*File, error) { return readVia(data, iotest.OneByteReader, window) },
		"EOF with data":  func() (*File, error) { return readVia(data, iotest.DataErrReader, window) },
		"4-byte buffer":  func() (*File, error) { return readVia(data, func(r io.Reader) io.Reader { return r }, 4) },
	} {
		f, viaErr := via()
		if fmt.Sprint(viaErr) != fmt.Sprint(err) || !reflect.DeepEqual(f, got) {
			t.Fatalf("input %q: %s gave %#v, %v; Read gave %#v, %v", data, name, f, viaErr, got, err)
		}
	}
}

// multiWindowSeed is a body several windows long in which a property name
// straddles the first window boundary.
func multiWindowSeed() string {
	var b strings.Builder
	b.WriteString(`{"queries": [`)
	straddled := false
	for i := 0; b.Len() < 3*window; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		if !straddled && b.Len()+32 > window {
			// Pad so that the name's 8 bytes start 4 before the boundary.
			b.WriteString(strings.Repeat(" ", window-6-b.Len()))
			b.WriteString(`["straddle"]`)
			straddled = true
			continue
		}
		fmt.Fprintf(&b, `["p%d", "q%d"]`, i, i%7)
	}
	b.WriteString(`], "default_cost": 2, "costs": {"q1": 1.5, "p0|q0": 0.25}}`)
	return b.String()
}

// differentialSeeds are the inputs FuzzReadDifferential adds to readSeeds.
func differentialSeeds() []string {
	return []string{
		// Escaped, non-ASCII and invalid UTF-8 names and keys.
		`{"queries": [["caf\u00e9", "\u0061"]], "costs": {"caf\u00e9": 1, "a": 2, "a|caf\u00e9": 3}}`,
		`{"queries": [["café", "日本"]], "costs": {"café|日本": 1}, "default_cost": 4}`,
		`{"queries": [["\ud83d\ude00", "\ud800", "\udc00x"]], "uniform_cost": 1}`,
		`{"queries": [["a\"b", "c\\d", "e\/f", "\b\f\n\r\t"]], "uniform_cost": 1}`,
		"{\"queries\": [[\"a\xffb\", \"\xc3\"]], \"costs\": {\"\xe2\x82\": 1}, \"uniform_cost\": 1}",
		`{"queries": [["a\x"]], "uniform_cost": 1}`,
		`{"queries": [["a\u12"]], "uniform_cost": 1}`,
		"{\"queries\": [[\"a\tb\"]], \"uniform_cost\": 1}",
		"{\"queries\": [[\"a\x7fb\"]], \"uniform_cost\": 1}",
		// Field names in other cases, escaped, and folding to the name.
		`{"Queries": [["a"]], "COSTS": {"a": 1}}`,
		`{"qu\u0065ries": [["a"]], "Uniform_Cost": 1}`,
		"{\"querie\u017f\": [[\"a\"]], \"uniform_cost\": 1}",
		`{"queries": [["a"]], "uniform-cost": 1}`,
		// null at every level.
		`null`,
		`{"queries": null}`,
		`{"queries": [null]}`,
		`{"queries": [["a", null]], "uniform_cost": 1}`,
		`{"queries": [["a"]], "costs": null, "uniform_cost": null, "default_cost": null, "weights": null}`,
		`{"queries": [["a"]], "costs": {"a": null}, "default_cost": 1}`,
		`{"queries": [["a"]], "weights": [null], "uniform_cost": 1}`,
		`{"queries": [["a"]], "costs": {}, "weights": []}`,
		`{"queries": [["a"]], "costs": {"a": nul}}`,
		// Numbers at the edges of the grammar and of float64.
		`{"queries": [["a"]], "uniform_cost": -0}`,
		`{"queries": [["a"]], "costs": {"a": 1e308, "b": 2.5E-3, "c": 0.1e+2}}`,
		`{"queries": [["a"]], "uniform_cost": 1e400}`,
		`{"queries": [["a"]], "uniform_cost": 1e-400}`,
		`{"queries": [["a"]], "uniform_cost": 01}`,
		`{"queries": [["a"]], "uniform_cost": 1.}`,
		`{"queries": [["a"]], "uniform_cost": .5}`,
		`{"queries": [["a"]], "uniform_cost": 1e}`,
		`{"queries": [["a"]], "uniform_cost": 1-2}`,
		`{"queries": [["a"]], "uniform_cost": "1"}`,
		`{"queries": [["a"]], "uniform_cost": true}`,
		// Trailing bytes, trailing commas, and wrong shapes.
		`{"queries": [["a"]], "uniform_cost": 1} trailing bytes`,
		`{"queries": [["a"]], "uniform_cost": 1}{"queries"`,
		`  {"queries": [["a"]], "uniform_cost": 1}`,
		`{"queries": [["a"],], "uniform_cost": 1}`,
		`{"queries": [["a"]], "uniform_cost": 1,}`,
		`{"queries": ["a"], "uniform_cost": 1}`,
		`{"queries": [["a"]], "costs": [1]}`,
		`[{"queries": [["a"]]}]`,
		// A repeated field.
		`{"queries": [["a", "b"]], "queries": [["c", null]], "uniform_cost": 1}`,
		`{"queries": [["a"]], "costs": {"a": 1}, "Costs": {"b": 2}}`,
		`{"queries": [["a"]], "uniform_cost": 1, "uniform_cost": 2}`,
		// Several windows long, and a token longer than the window.
		multiWindowSeed(),
		`{"queries": [["` + strings.Repeat("x", window+10) + `"]], "uniform_cost": 1}`,
	}
}

// FuzzReadDifferential checks the scanner against the encoding/json decode
// it replaced (see checkDifferential).
func FuzzReadDifferential(f *testing.F) {
	for _, seed := range slices.Concat(readSeeds, differentialSeeds()) {
		f.Add(seed)
	}
	f.Fuzz(checkDifferential)
}

func TestMultiWindowSeedStraddles(t *testing.T) {
	body := multiWindowSeed()
	if len(body) < 3*window || body[window-5:window+5] != `"straddle"` {
		t.Fatalf("seed of %d bytes does not straddle the window boundary: %q",
			len(body), body[window-8:window+8])
	}
}

// TestReadRejectsRepeatedField pins the one input class on which Read
// differs from encoding/json: a top-level field given twice, which the
// reflective decode merged into the first.
func TestReadRejectsRepeatedField(t *testing.T) {
	in := `{"queries":[["a","b"]],"queries":[["c",null]],"uniform_cost":1}`
	if _, err := Read(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), `"queries" given twice`) {
		t.Fatalf("Read = %v, want an error naming the repeated field", err)
	}
	ref, err := refRead(strings.NewReader(in))
	if err != nil || !reflect.DeepEqual(ref.Queries, [][]string{{"c", "b"}}) {
		t.Fatalf("refRead = %v, %v; encoding/json merged the repeat into [[c b]]", ref, err)
	}
}

// TestReadDoesNotAlias overwrites the input after Read: no string of the
// File may change.
func TestReadDoesNotAlias(t *testing.T) {
	in := `{"queries": [["plain", "caf\u00e9", "日本"], ["plain", "x"]],
		"costs": {"plain": 1, "caf\u00e9|plain": 2, "日本": 3}, "default_cost": 4}`
	src := []byte(in)
	got, err := Read(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = '#'
	}
	want, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("File changed with its input:\n%#v\nwant %#v", got, want)
	}
}

// TestReadWrapsReaderError: a reader's error reaches the caller through %w,
// so serve can map http.MaxBytesError to 413.
func TestReadWrapsReaderError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader(`{"queries": [["a"]`), iotest.ErrReader(boom))
	if _, err := Read(r); !errors.Is(err, boom) {
		t.Fatalf("Read = %v, want it to wrap %v", err, boom)
	}
	// An error after the object is never read.
	r = io.MultiReader(strings.NewReader(`{"queries": [["a"]], "uniform_cost": 1}`), iotest.ErrReader(boom))
	if _, err := Read(r); err != nil {
		t.Fatalf("Read = %v, want the object before the error", err)
	}
}

// BenchmarkReadPrivate decodes the instance file of the full Private load
// (seed 1, every classifier of C_Q priced), with Read and with the
// encoding/json reference.
func BenchmarkReadPrivate(b *testing.B) {
	inst, err := workload.Private(1).Instance()
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := Write(&body, FromInstance(inst)); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		read func(io.Reader) (*File, error)
	}{{"scanner", Read}, {"encoding-json", refRead}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(body.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.read(bytes.NewReader(body.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
