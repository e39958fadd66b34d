package core

import (
	"slices"
	"strings"
	"testing"
)

// addNames is a test shorthand.
func addNames(t *testing.T, b *StreamingBuilder, names ...string) {
	t.Helper()
	if err := b.AddNames(names...); err != nil {
		t.Fatalf("AddNames(%v): %v", names, err)
	}
}

func TestStreamingBuilderPartition(t *testing.T) {
	u := NewUniverse()
	b, err := NewStreamingBuilder(u, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two components: {a,b,c} linked via shared properties, {x,y} separate.
	addNames(t, b, "a", "b")
	addNames(t, b, "x", "y")
	addNames(t, b, "b", "c")
	addNames(t, b, "x")
	comps := b.Finish()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	// Seal order follows earliest arrival: the a/b component first.
	if got := len(comps[0].Queries); got != 2 {
		t.Errorf("component 0 has %d queries, want 2", got)
	}
	if got := len(comps[1].Queries); got != 2 {
		t.Errorf("component 1 has %d queries, want 2", got)
	}
	if comps[0].Index != 0 || comps[1].Index != 1 {
		t.Errorf("indices = %d,%d, want 0,1", comps[0].Index, comps[1].Index)
	}
	// Each component holds exactly its own queries, in no particular order.
	for i, want := range [][]string{{"a,b", "b,c"}, {"x", "x,y"}} {
		var got []string
		for _, q := range comps[i].Queries {
			got = append(got, strings.Join(u.SetNames(q), ","))
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("component %d holds %v, want %v", i, got, want)
		}
	}
}

// TestStreamingBuilderMatchesInstancePartition checks that the builder's
// partition agrees with the materialized instance path on a non-trivial
// load: same number of distinct queries and same component count as prep
// would find (components here = property-connectivity classes).
func TestStreamingBuilderMatchesInstanceFold(t *testing.T) {
	u := NewUniverse()
	b, err := NewStreamingBuilder(u, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	load := [][]string{
		{"a", "b"}, {"c", "d"}, {"a", "b"}, {"b", "e"}, {"c", "d"}, {"f"},
		{"d", "g"}, {"a"}, {"f"},
	}
	var queries []PropSet
	for _, names := range load {
		ids := make([]PropID, len(names))
		for i, n := range names {
			ids[i] = u.Intern(n)
		}
		q := NewPropSet(ids...)
		queries = append(queries, q)
		if err := b.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := NewInstance(u, queries, UniformCost(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	comps := b.Finish()
	total := 0
	for _, c := range comps {
		total += len(c.Queries)
	}
	if total != inst.NumQueries() {
		t.Errorf("distinct queries: builder %d, instance %d", total, inst.NumQueries())
	}
	if len(comps) != 3 { // {a,b,e}, {c,d,g}, {f}
		t.Errorf("components = %d, want 3", len(comps))
	}
	st := b.Stats()
	if st.Folded != 3 {
		t.Errorf("folded = %d, want 3", st.Folded)
	}
	if st.Added != int64(len(load)) {
		t.Errorf("added = %d, want %d", st.Added, len(load))
	}
}

func TestStreamingBuilderIdleSealAndPeak(t *testing.T) {
	u := NewUniverse()
	b, err := NewStreamingBuilder(u, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addNames(t, b, "a", "b")
	addNames(t, b, "a", "c")
	// Grow a second component long enough that the first goes idle.
	for i := 0; i < 10; i++ {
		addNames(t, b, "x", "y")
		addNames(t, b, "y", "z"+strings.Repeat("z", i))
	}
	sealed := b.SealIdle(5)
	if len(sealed) != 1 {
		t.Fatalf("idle-sealed components = %d, want 1 (the a/b/c component)", len(sealed))
	}
	if got := len(sealed[0].Queries); got != 2 {
		t.Errorf("sealed component has %d queries, want 2", got)
	}
	st := b.Stats()
	if st.SealedComponents != 1 || st.SealedQueries != 2 {
		t.Errorf("stats sealed = %d/%d, want 1/2", st.SealedComponents, st.SealedQueries)
	}
	if st.LiveQueries >= st.PeakLiveQueries {
		t.Errorf("live %d should have dropped below peak %d after sealing", st.LiveQueries, st.PeakLiveQueries)
	}
	rest := b.Finish()
	if len(rest) != 1 {
		t.Fatalf("finish sealed %d components, want 1", len(rest))
	}
	if rest[0].Index != 1 {
		t.Errorf("second component index = %d, want 1", rest[0].Index)
	}
}

func TestStreamingBuilderSealedReappearance(t *testing.T) {
	u := NewUniverse()
	b, err := NewStreamingBuilder(u, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addNames(t, b, "a", "b")
	addNames(t, b, "x")
	if got := len(b.SealIdle(1)); got != 1 {
		t.Fatalf("idle seal = %d components, want 1", got)
	}
	// "a" belongs to the sealed component: strict mode must refuse.
	err = b.AddNames("a", "c")
	if err == nil {
		t.Fatal("expected an error for a sealed property's reappearance")
	}
	if !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), "AllowReopen") {
		t.Errorf("error should name the property and the escape hatch, got: %v", err)
	}

	// AllowReopen accepts the query as a fresh, flagged component.
	u2 := NewUniverse()
	b2, err := NewStreamingBuilder(u2, StreamOptions{AllowReopen: true})
	if err != nil {
		t.Fatal(err)
	}
	addNames(t, b2, "a", "b")
	addNames(t, b2, "x")
	if got := len(b2.SealIdle(1)); got != 1 {
		t.Fatalf("idle seal = %d components, want 1", got)
	}
	addNames(t, b2, "a", "c")
	comps := b2.Finish()
	var reopened *SealedComponent
	for _, c := range comps {
		if c.Reopened {
			reopened = c
		}
	}
	if reopened == nil {
		t.Fatal("no component flagged Reopened")
	}
	if len(reopened.Queries) != 1 || reopened.Queries[0].Len() != 2 {
		t.Errorf("reopened component queries = %v, want one 2-query", reopened.Queries)
	}
}

func TestStreamingBuilderErrors(t *testing.T) {
	u := NewUniverse()
	b, err := NewStreamingBuilder(u, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(PropSet{}); err == nil {
		t.Error("empty query must error")
	}
	long := make([]string, MaxEnumQueryLen+1)
	for i := range long {
		long[i] = strings.Repeat("p", i+1)
	}
	if err := b.AddNames(long...); err == nil {
		t.Error("over-limit query must error")
	}
	addNames(t, b, "a")
	b.Finish()
	if err := b.AddNames("b"); err == nil {
		t.Error("Add after Finish must error")
	}
	if _, err := NewStreamingBuilder(nil, StreamOptions{}); err == nil {
		t.Error("nil universe must error")
	}
}
