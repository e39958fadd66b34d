package textio

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/workload"
)

const exampleJSON = `{
  "queries": [
    ["team:juventus", "color:white", "brand:adidas"],
    ["team:chelsea", "brand:adidas"]
  ],
  "costs": {
    "team:chelsea": 5,
    "brand:adidas": 5,
    "team:juventus": 5,
    "color:white": 1,
    "brand:adidas|team:chelsea": 3,
    "brand:adidas|color:white": 5,
    "brand:adidas|team:juventus": 3,
    "color:white|team:juventus": 4,
    "brand:adidas|color:white|team:juventus": 5
  }
}`

func TestReadBuildSolve(t *testing.T) {
	f, err := Read(strings.NewReader(exampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	_, inst, err := f.Build(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumQueries() != 2 || inst.NumClassifiers() != 9 {
		t.Fatalf("parsed instance: %d queries, %d classifiers", inst.NumQueries(), inst.NumClassifiers())
	}
	sol, err := solver.General(inst, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 7 {
		t.Errorf("solved file instance at cost %v, want 7", sol.Cost)
	}
	names := SolutionNames(inst, sol)
	if len(names) != len(sol.Selected) {
		t.Error("SolutionNames length mismatch")
	}
}

func TestCostModelFor(t *testing.T) {
	f, err := Read(strings.NewReader(exampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	u := core.NewUniverse()
	cm := f.CostModelFor(u)
	if got := cm.Cost(u.Set("brand:adidas", "team:chelsea")); got != 3 {
		t.Errorf("pair cost = %v, want 3", got)
	}
	if got := cm.Cost(u.Set("color:white")); got != 1 {
		t.Errorf("singleton cost = %v, want 1", got)
	}
	// Unpriced classifiers fall back to the default: +Inf when absent.
	if got := cm.Cost(u.Set("team:chelsea", "color:white")); !math.IsInf(got, 1) {
		t.Errorf("unpriced cost = %v, want +Inf", got)
	}

	// uniform_cost short-circuits the table entirely.
	uc := 2.5
	uf := &File{Queries: [][]string{{"a"}}, UniformCost: &uc}
	if got := uf.CostModelFor(core.NewUniverse()).Cost(core.NewPropSet(0, 1)); got != 2.5 {
		t.Errorf("uniform cost = %v, want 2.5", got)
	}

	// default_cost prices everything the table does not.
	dc := 7.0
	df := &File{Queries: [][]string{{"a"}}, DefaultCost: &dc}
	du := core.NewUniverse()
	if got := df.CostModelFor(du).Cost(du.Set("a")); got != 7 {
		t.Errorf("default cost = %v, want 7", got)
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := Read(strings.NewReader(exampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	_, inst, err := f.Build(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	back := FromInstance(inst)
	var buf bytes.Buffer
	if err := Write(&buf, back); err != nil {
		t.Fatal(err)
	}
	f2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, inst2, err := f2.Build(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst2.NumQueries() != inst.NumQueries() || inst2.NumClassifiers() != inst.NumClassifiers() {
		t.Error("round trip changed the instance shape")
	}
	s1, _ := solver.General(inst, solver.DefaultOptions())
	s2, _ := solver.General(inst2, solver.DefaultOptions())
	if s1.Cost != s2.Cost {
		t.Errorf("round trip changed solution cost: %v vs %v", s1.Cost, s2.Cost)
	}
}

func TestUniformCost(t *testing.T) {
	one := 1.0
	f := &File{Queries: [][]string{{"a", "b"}}, UniformCost: &one}
	_, inst, err := f.Build(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumClassifiers() != 3 {
		t.Errorf("classifiers = %d, want 3", inst.NumClassifiers())
	}
	for id := 0; id < 3; id++ {
		if inst.Cost(core.ClassifierID(id)) != 1 {
			t.Error("uniform cost not applied")
		}
	}
}

func TestDefaultCost(t *testing.T) {
	def := 9.0
	f := &File{
		Queries:     [][]string{{"a", "b"}},
		Costs:       map[string]float64{"a": 2},
		DefaultCost: &def,
	}
	u, inst, err := f.Build(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := u.Lookup("a")
	b, _ := u.Lookup("b")
	idA, _ := inst.ClassifierIDOf(core.NewPropSet(a))
	idB, _ := inst.ClassifierIDOf(core.NewPropSet(b))
	if inst.Cost(idA) != 2 || inst.Cost(idB) != 9 {
		t.Errorf("costs: a=%v b=%v", inst.Cost(idA), inst.Cost(idB))
	}
}

func TestNoDefaultMeansUnavailable(t *testing.T) {
	f := &File{
		Queries: [][]string{{"a", "b"}},
		Costs:   map[string]float64{"a": 2, "b": 3},
	}
	_, inst, err := f.Build(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumClassifiers() != 2 {
		t.Errorf("classifiers = %d, want 2 (AB unavailable)", inst.NumClassifiers())
	}
}

func TestValidation(t *testing.T) {
	cases := []string{
		`{}`,
		`{"queries": []}`,
		`{"queries": [[]]}`,
		`{"queries": [[""]]}`,
		`{"queries": [["a|b"]]}`,
		`{"queries": [["a"]], "costs": {"a": -1}}`,
		`{"queries": [["a"]], "uniform_cost": -2}`,
		`{"queries": [["a"]], "default_cost": -2}`,
		`{"queries": [["a"]], "unknown_field": 1}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) should fail", c)
		}
	}
}

// TestBuildRejectsAsValidate: Build checks a hand-built File in the walks
// that build it, and must reject it with validate's error, in validate's
// order: the empty load, then the queries in order, then the costs, then
// the scalars.
func TestBuildRejectsAsValidate(t *testing.T) {
	neg, one := -2.0, 1.0
	for _, f := range []*File{
		{},
		{Queries: [][]string{{"a"}, {}}, Costs: map[string]float64{"a": -1}},
		{Queries: [][]string{{"a", ""}}, UniformCost: &neg},
		{Queries: [][]string{{"a"}, {"b|c"}}, Costs: map[string]float64{"a": -1}},
		{Queries: [][]string{{"a"}}, Costs: map[string]float64{"a": -1}, UniformCost: &neg},
		{Queries: [][]string{{"a"}}, Costs: map[string]float64{"z": math.NaN()}, UniformCost: &one},
		{Queries: [][]string{{"a"}}, UniformCost: &neg, Weights: []float64{1, 2}},
		{Queries: [][]string{{"a"}}, DefaultCost: &neg, Weights: []float64{-1}},
		{Queries: [][]string{{"a"}}, UniformCost: &one, Weights: []float64{1, 2}},
		{Queries: [][]string{{"a"}, {"a", "b"}}, UniformCost: &one, Weights: []float64{1, -1}},
		{Queries: [][]string{{"a"}, {"a", "b"}}, UniformCost: &one, Weights: []float64{1, 2}},
	} {
		want := f.validate()
		_, inst, err := f.Build(core.Options{})
		if fmt.Sprint(err) != fmt.Sprint(want) || (err == nil) != (inst != nil) {
			t.Errorf("Build(%+v) = %v, %v; validate says %v", f, inst != nil, err, want)
		}
	}
}

func TestCostKeyCanonical(t *testing.T) {
	if CostKey([]string{"b", "a"}) != "a|b" {
		t.Error("CostKey must sort names")
	}
	if CostKey([]string{"x"}) != "x" {
		t.Error("singleton key")
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &File{}); err == nil {
		t.Error("Write must validate")
	}
	bad := math.Inf(1)
	_ = bad
}

func TestWeightsValidation(t *testing.T) {
	one := 1.0
	bad := []string{
		`{"queries": [["a"]], "uniform_cost": 1, "weights": [1, 2]}`,
		`{"queries": [["a"]], "uniform_cost": 1, "weights": [-1]}`,
	}
	for _, c := range bad {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) should fail", c)
		}
	}
	good := `{"queries": [["a"], ["a","b"]], "uniform_cost": 1, "weights": [2, 3]}`
	f, err := Read(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	w := f.QueryWeights()
	if len(w) != 2 || w[0] != 2 || w[1] != 3 {
		t.Errorf("QueryWeights = %v", w)
	}
	_ = one
}

func TestQueryWeightsMergeDuplicates(t *testing.T) {
	f := &File{
		Queries: [][]string{{"a", "b"}, {"b", "a"}, {"c"}},
		Weights: []float64{2, 3, 5},
	}
	w := f.QueryWeights()
	// {a,b} appears twice (different order): weights merge to 5.
	if len(w) != 2 || w[0] != 5 || w[1] != 5 {
		t.Errorf("QueryWeights = %v, want [5 5]", w)
	}
	// Without weights: uniform 1, duplicates summed.
	f2 := &File{Queries: [][]string{{"a"}, {"a"}, {"b"}}}
	w2 := f2.QueryWeights()
	if len(w2) != 2 || w2[0] != 2 || w2[1] != 1 {
		t.Errorf("QueryWeights = %v, want [2 1]", w2)
	}
}

// refCostModelFor is CostModelFor as first written — strings.Split per key,
// interning through Universe.Set, one map insert per key into an unsized
// table — kept as the reference for the interning order and table the
// production version must reproduce.
func refCostModelFor(f *File, u *core.Universe) *core.CostTable {
	def := math.Inf(1)
	if f.DefaultCost != nil {
		def = *f.DefaultCost
	}
	table := core.NewCostTable(def)
	keys := make([]string, 0, len(f.Costs))
	for key := range f.Costs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		table.Set(u.Set(strings.Split(key, KeySep)...), f.Costs[key])
	}
	return table
}

// TestCostModelForInterningOrder pins the property IDs CostModelFor assigns
// (the cluster differential replays loads in a second process and relies on
// both ending with the same universe) and the prices it stores, against the
// reference, on the Private cost table and on keys with unsorted, repeated
// and empty names: every key's price, and the default for sets the table
// lacks, each key's set with one member swapped for an unknown property
// among them. With the queries preloaded, "private" takes the map-order
// walk; every other file has a key that forces the sort.
func TestCostModelForInterningOrder(t *testing.T) {
	d := workload.Private(1)
	inst, err := d.Instance()
	if err != nil {
		t.Fatal(err)
	}
	one := 1.0
	unknown := FromInstance(inst)
	unknown.Costs[inst.Universe.Name(0)+KeySep+"~unknown"] = 7
	files := map[string]*File{
		"private":                FromInstance(inst),
		"private + unknown name": unknown,
		"twin sorts after a|a|b": {Queries: [][]string{{"a", "b"}}, Costs: map[string]float64{"a|a|b": 2, "a|b": 3, "a": 4, "b": 5}},
		"twin sorts before b|a":  {Queries: [][]string{{"a", "b"}}, Costs: map[string]float64{"b|a": 2, "a|b": 3, "a": 4, "b": 5}},
		"hand-made": {
			Queries:     [][]string{{"a", "b"}},
			Costs:       map[string]float64{"b|a": 2, "a|a": 3, "a": 4, "x||y": 5},
			DefaultCost: &one,
		},
	}
	for name, f := range files {
		for _, preload := range []bool{false, true} {
			got, want := core.NewUniverse(), core.NewUniverse()
			if preload {
				// File.Build interns the queries before the cost keys.
				for _, q := range f.Queries {
					got.Set(q...)
					want.Set(q...)
				}
			}
			cm, ref := f.CostModelFor(got), refCostModelFor(f, want)
			if g, w := got.Names(), want.Names(); !slices.Equal(g, w) {
				t.Fatalf("%s (preload %v): interned %d names %q…, reference %d names %q…",
					name, preload, len(g), g[:min(len(g), 8)], len(w), w[:min(len(w), 8)])
			}
			table, ok := cm.(*core.PriceTable)
			if !ok {
				t.Fatalf("%s: CostModelFor returned %T, want *core.PriceTable", name, cm)
			}
			if table.Len() != len(ref.Costs) || table.Default != ref.Default {
				t.Fatalf("%s: table has %d sets and default %v, reference %d and %v",
					name, table.Len(), table.Default, len(ref.Costs), ref.Default)
			}
			unknown := core.PropID(want.Size())
			for key := range f.Costs {
				s := want.Set(strings.Split(key, KeySep)...)
				if g, w := cm.Cost(s), ref.Cost(s); g != w {
					t.Errorf("%s: price of %q = %v, reference %v", name, key, g, w)
				}
				absent := core.NewPropSet(append(slices.Clone(s[:len(s)-1]), unknown)...)
				if g := cm.Cost(absent); g != table.Default {
					t.Errorf("%s: price of %q with %d for its last member = %v, want the default %v",
						name, key, unknown, g, table.Default)
				}
			}
		}
	}
}
