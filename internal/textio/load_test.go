package textio

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/hardness"
	"repro/internal/workload"
)

// loadSeeds are the inputs FuzzReadLoadDifferential adds to readSeeds and
// differentialSeeds: a Private subset body as Write and json.Marshal give
// it, costs before queries, uniform and default costs, unsorted, repeated,
// unknown and escaped key names, an invalid price a repeat overrides, and
// loads only core.NewInstance rejects.
func loadSeeds(t testing.TB) []string {
	inst, err := workload.Private(1).SubsetInstance(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	var indented strings.Builder
	if err := Write(&indented, FromInstance(inst)); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(FromInstance(inst))
	if err != nil {
		t.Fatal(err)
	}
	// Repeats of unsorted keys among 40 entries: the sorted walk must keep
	// each key's last price, as a stable sort does.
	var repeats strings.Builder
	repeats.WriteString(`{"queries": [["a", "b", "c"]], "costs": {`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&repeats, `"%s": %d, `, []string{"b|a", "c|b", "c|a", "c", "b|a|c"}[i%5], i)
	}
	repeats.WriteString(`"a": 1}}`)
	long := `{"queries": [["` + strings.Repeat("y", window+10) + `", "a"]], "costs": {"a": 1, "` +
		strings.Repeat("y", window+10) + `": 2}}`
	return []string{
		indented.String(),
		string(compact),
		long,
		repeats.String(),
		`{"costs": {"c|a": 1, "b": 2, "a": 3, "c": 4}, "default_cost": 9, "queries": [["c", "b", "a"], ["b"]]}`,
		`{"costs": {"z": 1}, "queries": [["a", "z"]], "uniform_cost": 2}`,
		`{"queries": [["a", "b"], ["b", "a"], ["b", "c", "b"]], "costs": {"b|a": 1, "a|b": 2, "a": 3, "b": 4, "c": 5, "b|c": 6}}`,
		`{"queries": [["a", "b"]], "costs": {"a|b": 1, "a|b": 2, "a": 3, "a": 4, "b": 5}}`,
		`{"queries": [["a", "b"]], "costs": {"a|unknown": 1, "unknown": 2, "a": 3, "b": 4}, "default_cost": 7}`,
		`{"queries": [["café", "b"]], "costs": {"b|café": 1, "café": 2, "b": 3}}`,
		`{"queries": [["a"]], "costs": {"a": -1, "a": 2}}`,
		`{"queries": [["a"]], "costs": {"a": 2, "a": -1}}`,
		`{"queries": [["a"], []], "costs": {"a": 1}}`,
		`{"queries": [["a", "b|c"]], "uniform_cost": 1}`,
		`{"queries": [["a"]], "weights": [1, 2], "uniform_cost": 1}`,
		`{"queries": [["a"]], "weights": [-1], "uniform_cost": 1}`,
		`{"queries": [["a"]], "default_cost": -1}`,
		`{"queries": [["a", "b"]], "costs": {"a": 1}}`,
		`{"queries": [["a","b","c","d","e","f","g","h","i","j","k","l","m","n","o","p","q","r","s","t","u"]], "uniform_cost": 1}`,
	}
}

// loadVia reads data with readLoad through the reader wrap puts around it
// and a buffer of size win, and builds the instance.
func loadVia(data string, wrap func(io.Reader) io.Reader, win int) (*core.Instance, error, error) {
	u, queries, cm, err := readLoad(wrap(strings.NewReader(data)), win)
	if err != nil {
		return nil, err, nil
	}
	inst, err := core.NewInstance(u, queries, cm, core.Options{})
	return inst, nil, err
}

// sameInstance reports how a and b differ: in universe names, queries,
// classifiers and their prices, per-query rows or incidence lists.
func sameInstance(a, b *core.Instance) error {
	if an, bn := a.Universe.Names(), b.Universe.Names(); !slices.Equal(an, bn) {
		return fmt.Errorf("universes %q and %q", an, bn)
	}
	if a.NumQueries() != b.NumQueries() || a.NumClassifiers() != b.NumClassifiers() {
		return fmt.Errorf("%d queries and %d classifiers against %d and %d",
			a.NumQueries(), a.NumClassifiers(), b.NumQueries(), b.NumClassifiers())
	}
	for qi := 0; qi < a.NumQueries(); qi++ {
		if !a.Query(qi).Equal(b.Query(qi)) || !slices.Equal(a.QueryClassifiers(qi), b.QueryClassifiers(qi)) {
			return fmt.Errorf("query %d: %v with row %v against %v with row %v",
				qi, a.Query(qi), a.QueryClassifiers(qi), b.Query(qi), b.QueryClassifiers(qi))
		}
	}
	for id := core.ClassifierID(0); int(id) < a.NumClassifiers(); id++ {
		if !a.Classifier(id).Equal(b.Classifier(id)) || a.Cost(id) != b.Cost(id) ||
			!slices.Equal(a.ClassifierQueries(id), b.ClassifierQueries(id)) {
			return fmt.Errorf("classifier %d: %v at %v in %v against %v at %v in %v", id,
				a.Classifier(id), a.Cost(id), a.ClassifierQueries(id),
				b.Classifier(id), b.Cost(id), b.ClassifierQueries(id))
		}
	}
	return nil
}

// checkLoadDifferential reads data with ReadLoad plus core.NewInstance and
// with Read plus File.Build. Both must reject it at the same step, which
// /solve answers with the same status: reading (400, or 413 for a body over
// the limit) or building (422). Or both accept it with identical instances.
// ReadLoad through a one-byte reader and through a 4-byte buffer that must
// grow must give what it gives through the default buffer, errors included.
func checkLoadDifferential(t *testing.T, data string) {
	t.Helper()
	var want *core.Instance
	file, wantReadErr := Read(strings.NewReader(data))
	var wantBuildErr error
	if wantReadErr == nil {
		_, want, wantBuildErr = file.Build(core.Options{})
	}
	got, readErr, buildErr := loadVia(data, func(r io.Reader) io.Reader { return r }, window)
	switch {
	case (readErr != nil) != (wantReadErr != nil) || (buildErr != nil) != (wantBuildErr != nil):
		t.Fatalf("input %q: ReadLoad error %v, NewInstance error %v; Read error %v, Build error %v",
			data, readErr, buildErr, wantReadErr, wantBuildErr)
	case got != nil:
		if err := sameInstance(got, want); err != nil {
			t.Fatalf("input %q: ReadLoad's instance differs from Build's: %v", data, err)
		}
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"one-byte reads": iotest.OneByteReader,
		"4-byte buffer":  func(r io.Reader) io.Reader { return r },
	} {
		win := window
		if name == "4-byte buffer" {
			win = 4
		}
		via, viaReadErr, viaBuildErr := loadVia(data, wrap, win)
		if fmt.Sprint(viaReadErr) != fmt.Sprint(readErr) || fmt.Sprint(viaBuildErr) != fmt.Sprint(buildErr) {
			t.Fatalf("input %q: %s gave errors %v, %v; the default buffer %v, %v",
				data, name, viaReadErr, viaBuildErr, readErr, buildErr)
		}
		if via != nil {
			if err := sameInstance(via, got); err != nil {
				t.Fatalf("input %q: %s gave another instance: %v", data, name, err)
			}
		}
	}
}

// TestReadLoadOnWorkloads writes instance files of the three workload
// families and of both hardness reductions, as FromInstance and Write
// give them, and holds ReadLoad to Read plus File.Build on each (see
// checkLoadDifferential). File.Build's instance must also be the one the
// map-backed reference table prices, classifier for classifier.
func TestReadLoadOnWorkloads(t *testing.T) {
	loads := map[string]func() (*core.Instance, error){
		"synthetic": func() (*core.Instance, error) { return workload.Synthetic(400, 1).Instance() },
		"bestbuy":   func() (*core.Instance, error) { return workload.BestBuy(1).Instance() },
		"private":   func() (*core.Instance, error) { return workload.Private(1).Instance() },
		"theorem 5.1": func() (*core.Instance, error) {
			r, err := hardness.BuildTheorem51(&hardness.SetCover{NumElements: 5,
				Sets: [][]int{{0, 1, 2}, {1, 3}, {2, 3, 4}, {0, 4}, {0, 1, 3, 4}}})
			if err != nil {
				return nil, err
			}
			return r.Inst, nil
		},
		"theorem 5.2": func() (*core.Instance, error) {
			r, err := hardness.BuildTheorem52(&hardness.SetCover{NumElements: 6,
				Sets: [][]int{{0, 1}, {1, 2, 3}, {3, 4}, {4, 5, 0}, {2, 5}}})
			if err != nil {
				return nil, err
			}
			return r.Inst, nil
		},
	}
	for name, load := range loads {
		inst, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var body strings.Builder
		if err := Write(&body, FromInstance(inst)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkLoadDifferential(t, body.String())

		f, err := Read(strings.NewReader(body.String()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, built, err := f.Build(core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		u := core.NewUniverse()
		queries := make([]core.PropSet, len(f.Queries))
		for i, q := range f.Queries {
			queries[i] = u.Set(q...)
		}
		ref, err := core.NewInstance(u, queries, refCostModelFor(f, u), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sameInstance(built, ref); err != nil {
			t.Errorf("%s: File.Build's instance differs from the map-priced reference: %v", name, err)
		}
	}
}

// FuzzReadLoadDifferential holds the fused decode to Read plus File.Build
// (see checkLoadDifferential).
func FuzzReadLoadDifferential(f *testing.F) {
	for _, seed := range slices.Concat(readSeeds, differentialSeeds(), loadSeeds(f)) {
		f.Add(seed)
	}
	f.Fuzz(checkLoadDifferential)
}

// BenchmarkDecodeBuild turns instance bodies into instances with Read plus
// File.Build and with ReadLoad plus core.NewInstance: the full Private load
// (seed 1, every classifier of C_Q priced, as Write indents it) and a
// 500-query subset as json.Marshal writes it, the shape of a /solve body.
func BenchmarkDecodeBuild(b *testing.B) {
	d := workload.Private(1)
	full, err := d.Instance()
	if err != nil {
		b.Fatal(err)
	}
	sub, err := d.SubsetInstance(500, 1)
	if err != nil {
		b.Fatal(err)
	}
	var fullBody strings.Builder
	if err := Write(&fullBody, FromInstance(full)); err != nil {
		b.Fatal(err)
	}
	subBody, err := json.Marshal(FromInstance(sub))
	if err != nil {
		b.Fatal(err)
	}
	for _, body := range []struct {
		name string
		data string
	}{{"private", fullBody.String()}, {"subset-500", string(subBody)}} {
		for _, path := range []struct {
			name  string
			build func(io.Reader) (*core.Instance, error)
		}{
			{"Read+Build", func(r io.Reader) (*core.Instance, error) {
				f, err := Read(r)
				if err != nil {
					return nil, err
				}
				_, inst, err := f.Build(core.Options{})
				return inst, err
			}},
			{"ReadLoad+NewInstance", func(r io.Reader) (*core.Instance, error) {
				u, queries, cm, err := ReadLoad(r)
				if err != nil {
					return nil, err
				}
				return core.NewInstance(u, queries, cm, core.Options{})
			}},
		} {
			b.Run(body.name+"/"+path.name, func(b *testing.B) {
				b.SetBytes(int64(len(body.data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := path.build(strings.NewReader(body.data)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
