package cache

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
)

// prepFor builds an instance over the given queries and runs minimal
// preprocessing — Full would solve these tiny instances outright, leaving no
// residual component to sign. Under Minimal all residual queries form one
// component.
func prepFor(t *testing.T, u *core.Universe, queries []core.PropSet, cm core.CostModel) *prep.Result {
	t.Helper()
	inst, err := core.NewInstance(u, queries, cm, core.Options{})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	r, err := prep.Run(inst, prep.Minimal)
	if err != nil {
		t.Fatalf("prep.Run: %v", err)
	}
	if len(r.Components) == 0 {
		t.Fatal("test instance was fully solved by preprocessing; no residual component")
	}
	return r
}

// costByLen prices a classifier by its length, keeping everything alive and
// non-trivial (no zero-cost selections, no singleton forcing of pairs).
var costByLen = core.CostFunc(func(s core.PropSet) float64 { return float64(s.Len()*10 - 5) })

func TestComponentKeyRenamingInvariance(t *testing.T) {
	c := New(Config{})

	// Same structure under two disjoint property alphabets. Names are chosen
	// so the within-query sorted order matches across the renaming (bit
	// canonicalization inside a query is not attempted — see package doc).
	u1 := core.NewUniverse()
	q1 := []core.PropSet{u1.Set("a", "b", "c"), u1.Set("b", "d")}
	r1 := prepFor(t, u1, q1, costByLen)

	u2 := core.NewUniverse()
	q2 := []core.PropSet{u2.Set("p", "q", "r"), u2.Set("q", "s")}
	r2 := prepFor(t, u2, q2, costByLen)

	if len(r1.Components) != len(r2.Components) {
		t.Fatalf("component counts differ: %d vs %d", len(r1.Components), len(r2.Components))
	}
	for ci := range r1.Components {
		k1 := componentKey(c, "general/x", r1, r1.Components[ci])
		k2 := componentKey(c, "general/x", r2, r2.Components[ci])
		if !k1.Valid() || !k2.Valid() {
			t.Fatalf("component %d: invalid key(s)", ci)
		}
		if !bytes.Equal(k1.buf, k2.buf) {
			t.Errorf("component %d: renamed component got a different signature", ci)
		}
		if len(k1.globals) != len(k2.globals) {
			t.Errorf("component %d: classifier enumerations differ: %d vs %d", ci, len(k1.globals), len(k2.globals))
		}
	}
}

func TestComponentKeyQueryOrderInvariance(t *testing.T) {
	c := New(Config{})

	// Distinct lengths make the per-query fingerprints distinct, so the
	// canonical sort is strict. (Locally indistinguishable queries tie and
	// fall back to their property-ID tuples, which a renaming can reorder —
	// a documented extra-miss case, not tested here.)
	u1 := core.NewUniverse()
	q1 := []core.PropSet{u1.Set("a", "b", "c"), u1.Set("b", "d"), u1.Set("c", "d", "e", "f")}
	r1 := prepFor(t, u1, q1, costByLen)

	// The same queries over the same universe, presented in reverse order
	// (interning order is part of the representation and stays fixed).
	q2 := []core.PropSet{q1[2], q1[1], q1[0]}
	r2 := prepFor(t, u1, q2, costByLen)

	if len(r1.Components) != 1 || len(r2.Components) != 1 {
		t.Fatalf("expected one component each, got %d and %d", len(r1.Components), len(r2.Components))
	}
	k1 := componentKey(c, "d", r1, r1.Components[0])
	k2 := componentKey(c, "d", r2, r2.Components[0])
	if !bytes.Equal(k1.buf, k2.buf) {
		t.Error("reordered load got a different signature")
	}
}

func TestComponentKeyDistinguishesStructure(t *testing.T) {
	c := New(Config{})

	// Two pair-queries sharing a property vs two disjoint pair-queries:
	// identical per-query fingerprints, different cross-query identity.
	u1 := core.NewUniverse()
	r1 := prepFor(t, u1, []core.PropSet{u1.Set("a", "b"), u1.Set("b", "c")}, core.UniformCost(3))
	u2 := core.NewUniverse()
	r2 := prepFor(t, u2, []core.PropSet{u2.Set("a", "b"), u2.Set("c", "d")}, core.UniformCost(3))

	k1 := componentKey(c, "d", r1, r1.Components[0])
	k2 := componentKey(c, "d", r2, r2.Components[0])
	if bytes.Equal(k1.buf, k2.buf) {
		t.Error("shared-property and disjoint loads must not share a signature")
	}
}

func TestComponentKeyDistinguishesCostsAndDomain(t *testing.T) {
	c := New(Config{})
	for _, costs := range [][2]float64{{3, 4}, {3.001, 3.002}} {
		u1 := core.NewUniverse()
		r1 := prepFor(t, u1, []core.PropSet{u1.Set("a", "b")}, core.UniformCost(costs[0]))
		u2 := core.NewUniverse()
		r2 := prepFor(t, u2, []core.PropSet{u2.Set("a", "b")}, core.UniformCost(costs[1]))
		if bytes.Equal(componentKey(c, "d", r1, r1.Components[0]).buf, componentKey(c, "d", r2, r2.Components[0]).buf) {
			t.Errorf("costs %v and %v must not share a signature", costs[0], costs[1])
		}
	}

	u := core.NewUniverse()
	r := prepFor(t, u, []core.PropSet{u.Set("a", "b")}, core.UniformCost(3))
	if bytes.Equal(componentKey(c, "ktwo/dinic", r, r.Components[0]).buf, componentKey(c, "general/greedy", r, r.Components[0]).buf) {
		t.Error("different algorithm domains must not share a signature")
	}
}

func TestLookupStoreTranslation(t *testing.T) {
	c := New(Config{})
	u := core.NewUniverse()
	r := prepFor(t, u, []core.PropSet{u.Set("a", "b"), u.Set("b", "c")}, core.UniformCost(3))
	k := componentKey(c, "d", r, r.Components[0])

	if _, ok := c.Lookup(k); ok {
		t.Fatal("lookup before store must miss")
	}
	// Store an arbitrary valid pick set (classifiers of the component).
	picks := []core.ClassifierID{r.Inst.QueryClassifiers(0)[0].ID, r.Inst.QueryClassifiers(1)[1].ID}
	c.Store(k, picks)

	got, ok := c.Lookup(k)
	if !ok {
		t.Fatal("lookup after store must hit")
	}
	if len(got) != len(picks) || got[0] != picks[0] || got[1] != picks[1] {
		t.Errorf("round-trip picks = %v, want %v", got, picks)
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", hr)
	}
}

func TestStoreForeignPickIsDropped(t *testing.T) {
	c := New(Config{})
	u := core.NewUniverse()
	r := prepFor(t, u, []core.PropSet{u.Set("a", "b")}, core.UniformCost(3))
	k := componentKey(c, "d", r, r.Components[0])

	// A classifier ID outside the component's enumeration cannot be
	// canonicalized; the store must be a no-op rather than caching garbage.
	c.Store(k, []core.ClassifierID{9999})
	if _, ok := c.Lookup(k); ok {
		t.Error("store of a foreign pick must not create an entry")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	keys := make([]Key, 3)
	for i := range keys {
		u := core.NewUniverse()
		r := prepFor(t, u, []core.PropSet{u.Set("a", "b")}, core.UniformCost(float64(i+1)))
		keys[i] = componentKey(c, "d", r, r.Components[0])
		c.Store(keys[i], nil)
	}
	if _, ok := c.Lookup(keys[0]); ok {
		t.Error("oldest entry should have been evicted")
	}
	for _, k := range keys[1:] {
		if _, ok := c.Lookup(k); !ok {
			t.Error("recent entries must survive")
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", st)
	}

	// Touching an entry must protect it from the next eviction.
	c.Lookup(keys[1])
	u := core.NewUniverse()
	r := prepFor(t, u, []core.PropSet{u.Set("a", "b")}, core.UniformCost(99))
	c.Store(componentKey(c, "d", r, r.Components[0]), nil)
	if _, ok := c.Lookup(keys[1]); !ok {
		t.Error("recently used entry must not be evicted")
	}
	if _, ok := c.Lookup(keys[2]); ok {
		t.Error("least recently used entry must be evicted")
	}
}

func TestResetAndLen(t *testing.T) {
	c := New(Config{})
	u := core.NewUniverse()
	r := prepFor(t, u, []core.PropSet{u.Set("a", "b")}, core.UniformCost(1))
	c.Store(componentKey(c, "d", r, r.Components[0]), nil)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", c.Len())
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	u := core.NewUniverse()
	r := prepFor(t, u, []core.PropSet{u.Set("a", "b")}, core.UniformCost(3))
	cc, k := Canonical(c, "d", r, r.Components[0])
	cc.Release()
	if k.Valid() {
		t.Error("nil cache must produce invalid keys")
	}
	if _, ok := c.Lookup(k); ok {
		t.Error("nil cache lookup must miss")
	}
	c.Store(k, nil)
	c.Reset()
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Error("nil cache must report empty stats")
	}
}

func TestManyEntriesStayConsistent(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	var keys []Key
	for i := 0; i < 32; i++ {
		u := core.NewUniverse()
		r := prepFor(t, u, []core.PropSet{u.Set("a", fmt.Sprintf("b%d", i))}, core.UniformCost(float64(i+1)))
		k := componentKey(c, "d", r, r.Components[0])
		c.Store(k, nil)
		keys = append(keys, k)
	}
	if got := c.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	// The 8 most recent keys must all hit.
	for _, k := range keys[len(keys)-8:] {
		if _, ok := c.Lookup(k); !ok {
			t.Error("recent key missed")
		}
	}
	st := c.Stats()
	if st.Evictions != 24 {
		t.Errorf("evictions = %d, want 24", st.Evictions)
	}
}

// storedBytes sums the signature and pick bytes of every cached entry.
func storedBytes(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b int
	for _, e := range c.entries {
		b += len(e.key) + 4*len(e.picks)
	}
	return b
}

// TestBoundCountsSlots checks that MaxEntries bounds memory, not just the
// entry count: large signatures (a session's giant component changing every
// batch) hold one slot per started 4 KiB, while small entries still fill
// exactly MaxEntries.
func TestBoundCountsSlots(t *testing.T) {
	const bound = 64
	t.Run("large", func(t *testing.T) {
		c := New(Config{MaxEntries: bound})
		for i := 0; i < bound; i++ {
			c.Store(Key{buf: fmt.Appendf(nil, "%040000d", i)}, nil)
		}
		if b := storedBytes(c); b > bound*slotBytes {
			t.Errorf("cache holds %d bytes in %d entries, want ≤ %d", b, c.Len(), bound*slotBytes)
		}
		if c.Len() == 0 {
			t.Error("entries within the bound must be stored")
		}
		// An entry larger than the whole bound is not stored.
		huge := Key{buf: bytes.Repeat([]byte("x"), (bound+1)*slotBytes)}
		c.Store(huge, nil)
		if _, ok := c.Lookup(huge); ok {
			t.Error("an entry larger than the bound must not be stored")
		}
	})
	t.Run("small", func(t *testing.T) {
		c := New(Config{MaxEntries: bound})
		for i := 0; i < 2*bound; i++ {
			c.Store(Key{buf: fmt.Appendf(nil, "%03000d", i)}, []core.ClassifierID{})
		}
		if c.Len() != bound {
			t.Errorf("Len = %d after %d stores of sub-4 KiB entries, want %d", c.Len(), 2*bound, bound)
		}
		if st := c.Stats(); st.Evictions != bound {
			t.Errorf("evictions = %d, want %d", st.Evictions, bound)
		}
	})
}

// TestLookupCopiesNoKey checks that a key views the component's scratch, a
// lookup reads it there (a miss allocates nothing, a hit only its returned
// picks), and a store copies it, so the entry outlives the scratch.
func TestLookupCopiesNoKey(t *testing.T) {
	c := New(Config{Metrics: obs.NewRegistry()})
	u := core.NewUniverse()
	r := prepFor(t, u, []core.PropSet{u.Set("a", "b"), u.Set("b", "c")}, core.UniformCost(3))
	cc, k := Canonical(c, "d", r, r.Components[0])
	if &k.buf[0] != &cc.buf[0] || &k.globals[0] != &cc.Classifiers[0] {
		t.Error("the key does not view the component's scratch")
	}
	if avg := testing.AllocsPerRun(100, func() { c.Lookup(k) }); avg != 0 {
		t.Errorf("a miss allocates %.0f, want 0", avg)
	}
	c.Store(k, []core.ClassifierID{r.Inst.QueryClassifiers(0)[0].ID})
	if avg := testing.AllocsPerRun(100, func() { c.Lookup(k) }); avg != 1 {
		t.Errorf("a hit allocates %.0f, want 1 (the picks)", avg)
	}
	cc.Release()
	// Another component overwrites the pooled scratch.
	r2 := prepFor(t, u, []core.PropSet{u.Set("x", "y")}, core.UniformCost(7))
	cc2, _ := Canonical(c, "d", r2, r2.Components[0])
	cc2.Release()
	cc3, k3 := Canonical(c, "d", r, r.Components[0])
	defer cc3.Release()
	if _, ok := c.Lookup(k3); !ok {
		t.Error("the stored entry did not outlive the scratch its key viewed")
	}
}

// TestMetricsRegisteredAtFirstUse checks that the cache's series appear in
// the registry when the cache first counts into them, not before.
func TestMetricsRegisteredAtFirstUse(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{Metrics: reg, MaxEntries: 1})
	series := func() []string {
		var names []string
		for name := range reg.Snapshot() {
			names = append(names, name)
		}
		slices.Sort(names)
		return names
	}
	if got := series(); len(got) != 0 {
		t.Fatalf("a new cache registered %v", got)
	}
	u := core.NewUniverse()
	keys := make([]Key, 2)
	for i := range keys {
		r := prepFor(t, u, []core.PropSet{u.Set("a", "b")}, core.UniformCost(float64(i+1)))
		keys[i] = componentKey(c, "d", r, r.Components[0])
	}
	c.Lookup(keys[0])
	if got, want := series(), []string{"mc3_cache_misses_total"}; !slices.Equal(got, want) {
		t.Fatalf("after a miss: %v, want %v", got, want)
	}
	c.Store(keys[0], nil)
	c.Lookup(keys[0])
	if got, want := series(), []string{"mc3_cache_entries", "mc3_cache_hits_total", "mc3_cache_misses_total"}; !slices.Equal(got, want) {
		t.Fatalf("after a store and a hit: %v, want %v", got, want)
	}
	c.Store(keys[1], nil)
	if got := reg.Counter("mc3_cache_evictions_total").Value(); got != 1 {
		t.Errorf("mc3_cache_evictions_total = %d, want 1", got)
	}
	if got := reg.Gauge("mc3_cache_entries").Value(); got != 1 {
		t.Errorf("mc3_cache_entries = %v, want 1", got)
	}
}
