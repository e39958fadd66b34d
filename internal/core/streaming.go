package core

import (
	"cmp"
	"fmt"
	"slices"
)

// StreamingBuilder ingests a query load one query at a time and maintains the
// property→component partition incrementally, so property-disjoint groups of
// queries (the paper's Observation 3.2 components) can be sealed — handed off
// for solving — while ingestion continues. Unlike NewInstance, which
// materializes the whole load and all of C_Q before any solving begins, the
// builder holds only the queries of components that are still live: peak
// memory is proportional to the live working set, not the load.
//
// Per component, duplicate query shapes are folded on arrival (the paper
// assumes a set of distinct queries; NewInstance merges duplicates the same
// way), so a skewed stream costs memory proportional to its distinct shapes.
//
// The builder performs the same admission checks as NewInstance (non-empty
// queries, the MaxEnumQueryLen enumeration cap) and is not safe for
// concurrent use; wrap it if multiple goroutines feed one stream.
type StreamingBuilder struct {
	u    *Universe
	opts StreamOptions
	maxQ int

	parent []int32 // union-find over PropID, grown lazily with the universe
	rank   []int8
	sealed []bool // per property: belongs to an already-sealed component

	comps map[int32]*liveComponent // union-find root -> live component

	seq        int64 // queries admitted (Add calls that validated)
	folded     int64 // duplicates folded into an existing shape
	liveQ      int   // distinct queries currently held
	peakQ      int   // high watermark of liveQ
	sealedN    int   // components sealed so far
	sealedQ    int64 // distinct queries handed off in sealed components
	maxLen     int   // maximal query length seen
	keyBuf     []byte
	rootsBuf   []int32
	finishedAt int64 // set by Finish; further Adds error
}

// liveComponent is one property-connected group of queries still being grown.
type liveComponent struct {
	queries  []PropSet
	shapes   map[string]struct{}
	first    int64 // seq of the earliest query held; set once queries is non-empty
	last     int64 // seq of the last query that touched this component
	reopened bool  // created by a reopen of already-sealed properties
}

// StreamOptions configure a StreamingBuilder.
type StreamOptions struct {
	// MaxQueryLen rejects queries longer than this during ingestion. Zero
	// means the built-in enumeration safety limit (MaxEnumQueryLen). Same
	// semantics as Options.MaxQueryLen.
	MaxQueryLen int
	// AllowReopen controls what happens when a query arrives whose
	// properties belong to an already-sealed component. By default this is
	// an error: sealing promised that component's property set was complete,
	// and solving it again would break the guarantee that a streamed solve
	// is cost-identical to a whole-load solve. With AllowReopen the
	// offending properties start a fresh component instead; the union of
	// the per-component covers remains a feasible cover of the whole load,
	// but it is only an upper bound on the whole-load solve's cost.
	AllowReopen bool
}

// SealedComponent is one property-disjoint group of queries handed off by the
// builder, ready to be solved as a standalone instance.
type SealedComponent struct {
	// Queries holds the component's distinct query shapes, in no particular
	// order: the solvers read each residual component in its canonical
	// order.
	Queries []PropSet
	// Index is the seal sequence number (0-based): the deterministic order
	// in which components were handed off.
	Index int
	// Reopened marks a component created after its properties were already
	// sealed once (only possible with AllowReopen).
	Reopened bool
}

// StreamStats is a snapshot of the builder's counters.
type StreamStats struct {
	// Added counts admitted queries, duplicates included.
	Added int64
	// Folded counts queries dropped as duplicate shapes of a live query.
	Folded int64
	// LiveQueries is the number of distinct queries currently held.
	LiveQueries int
	// PeakLiveQueries is the high watermark of LiveQueries — the builder's
	// memory story in one number.
	PeakLiveQueries int
	// LiveComponents is the number of components still being grown.
	LiveComponents int
	// SealedComponents counts components handed off so far.
	SealedComponents int
	// SealedQueries counts distinct queries handed off in sealed components.
	SealedQueries int64
	// MaxQueryLen is the maximal query length seen so far.
	MaxQueryLen int
}

// NewStreamingBuilder returns a builder interning into u.
func NewStreamingBuilder(u *Universe, opts StreamOptions) (*StreamingBuilder, error) {
	if u == nil {
		return nil, fmt.Errorf("core: nil universe")
	}
	maxQ := opts.MaxQueryLen
	if maxQ <= 0 || maxQ > MaxEnumQueryLen {
		maxQ = MaxEnumQueryLen
	}
	return &StreamingBuilder{
		u:     u,
		opts:  opts,
		maxQ:  maxQ,
		comps: make(map[int32]*liveComponent),
	}, nil
}

// AddNames interns the property names and adds the query.
func (b *StreamingBuilder) AddNames(names ...string) error {
	ids := make([]PropID, len(names))
	for i, n := range names {
		ids[i] = b.u.Intern(n)
	}
	return b.Add(NewPropSet(ids...))
}

// Add ingests one query. The PropSet must be canonical (NewPropSet) over
// properties interned in the builder's universe; it may be retained.
func (b *StreamingBuilder) Add(q PropSet) error {
	if b.finishedAt > 0 {
		return fmt.Errorf("core: StreamingBuilder used after Finish")
	}
	if q.Empty() {
		return fmt.Errorf("core: empty query")
	}
	if q.Len() > b.maxQ {
		return fmt.Errorf("core: query %v has %d properties, limit is %d", q, q.Len(), b.maxQ)
	}
	b.grow()
	for _, p := range q {
		if p < 0 || int(p) >= len(b.parent) {
			return fmt.Errorf("core: query property %d not interned in universe", p)
		}
		if b.sealed[p] {
			if !b.opts.AllowReopen {
				return fmt.Errorf("core: property %q reappeared after its component was sealed (seal later, or set AllowReopen to accept an upper-bound cover)", b.u.Name(p))
			}
			// Reopen: the property starts over as a fresh singleton.
			b.parent[p] = int32(p)
			b.rank[p] = 0
			b.sealed[p] = false
			b.comps[int32(p)] = &liveComponent{shapes: make(map[string]struct{}), last: b.seq, queries: nil}
			b.markReopened(p)
		}
	}
	b.seq++

	// Collect the distinct roots the query's properties currently live in.
	roots := b.rootsBuf[:0]
	for _, p := range q {
		r := b.find(p)
		dup := false
		for _, seen := range roots {
			if seen == r {
				dup = true
				break
			}
		}
		if !dup {
			roots = append(roots, r)
		}
	}
	b.rootsBuf = roots

	// Duplicate-shape fold: if every property is already in one live
	// component, the shape may have been seen before.
	b.keyBuf = q.AppendKey(b.keyBuf[:0])
	if len(roots) == 1 {
		if c := b.comps[roots[0]]; c != nil {
			if _, ok := c.shapes[string(b.keyBuf)]; ok {
				b.folded++
				c.last = b.seq
				return nil
			}
		}
	}

	// Union everything into one component, merging query lists and shape
	// sets smaller-into-larger.
	root := roots[0]
	if b.comps[root] == nil {
		b.comps[root] = &liveComponent{shapes: make(map[string]struct{})}
	}
	for _, r := range roots[1:] {
		root = b.union(root, r)
	}
	c := b.comps[root]
	c.shapes[string(b.keyBuf)] = struct{}{}
	if len(c.queries) == 0 {
		c.first = b.seq
	}
	c.queries = append(c.queries, q)
	c.last = b.seq
	b.liveQ++
	if b.liveQ > b.peakQ {
		b.peakQ = b.liveQ
	}
	if q.Len() > b.maxLen {
		b.maxLen = q.Len()
	}
	return nil
}

// markReopened flags the fresh component created for a reopened property so
// its eventual SealedComponent carries the upper-bound caveat.
func (b *StreamingBuilder) markReopened(p PropID) {
	b.comps[int32(p)].reopened = true
}

// SealIdle seals and returns every live component whose last touch is at
// least window admitted queries ago — the mid-stream handoff that keeps peak
// memory bounded when the stream has property locality. Components are
// returned in a deterministic order (by their earliest query's arrival).
// window must be positive.
func (b *StreamingBuilder) SealIdle(window int64) []*SealedComponent {
	if window <= 0 {
		return nil
	}
	return b.sealWhere(func(c *liveComponent) bool {
		return b.seq-c.last >= window
	})
}

// Finish seals every remaining live component and closes the builder;
// further Adds error. Safe to call once.
func (b *StreamingBuilder) Finish() []*SealedComponent {
	out := b.sealWhere(func(*liveComponent) bool { return true })
	b.finishedAt = b.seq + 1
	return out
}

// sealWhere extracts the components matching pred, marks their properties
// sealed, and frees the live state.
func (b *StreamingBuilder) sealWhere(pred func(*liveComponent) bool) []*SealedComponent {
	type rooted struct {
		root int32
		c    *liveComponent
	}
	var picked []rooted
	for root, c := range b.comps {
		if len(c.queries) == 0 {
			// An empty shell left behind by a reopen that immediately merged
			// elsewhere; drop it silently.
			if pred(c) {
				delete(b.comps, root)
			}
			continue
		}
		if pred(c) {
			picked = append(picked, rooted{root, c})
		}
	}
	// Deterministic seal order: by earliest arrival.
	slices.SortFunc(picked, func(x, y rooted) int { return cmp.Compare(x.c.first, y.c.first) })

	out := make([]*SealedComponent, 0, len(picked))
	for _, rc := range picked {
		qs := rc.c.queries
		for _, q := range qs {
			for _, p := range q {
				b.sealed[p] = true
			}
		}
		out = append(out, &SealedComponent{Queries: qs, Index: b.sealedN, Reopened: rc.c.reopened})
		b.sealedN++
		b.sealedQ += int64(len(qs))
		b.liveQ -= len(qs)
		delete(b.comps, rc.root)
	}
	return out
}

// Stats returns a snapshot of the builder's counters.
func (b *StreamingBuilder) Stats() StreamStats {
	live := 0
	for _, c := range b.comps {
		if len(c.queries) > 0 {
			live++
		}
	}
	return StreamStats{
		Added:            b.seq,
		Folded:           b.folded,
		LiveQueries:      b.liveQ,
		PeakLiveQueries:  b.peakQ,
		LiveComponents:   live,
		SealedComponents: b.sealedN,
		SealedQueries:    b.sealedQ,
		MaxQueryLen:      b.maxLen,
	}
}

// MaxQueryLen returns the maximal query length seen so far — after Finish,
// the exact ambient length a whole-load solve would use.
func (b *StreamingBuilder) MaxQueryLen() int { return b.maxLen }

// grow extends the union-find arrays to cover every interned property.
func (b *StreamingBuilder) grow() {
	n := b.u.Size()
	for len(b.parent) < n {
		b.parent = append(b.parent, int32(len(b.parent)))
		b.rank = append(b.rank, 0)
		b.sealed = append(b.sealed, false)
	}
}

// find returns p's root with path halving.
func (b *StreamingBuilder) find(p PropID) int32 {
	x := int32(p)
	for b.parent[x] != x {
		b.parent[x] = b.parent[b.parent[x]]
		x = b.parent[x]
	}
	return x
}

// union merges the components rooted at a and b2 and returns the new root,
// moving query lists and shape sets smaller-into-larger.
func (b *StreamingBuilder) union(a, b2 int32) int32 {
	if a == b2 {
		return a
	}
	if b.rank[a] < b.rank[b2] {
		a, b2 = b2, a
	}
	ca, cb := b.comps[a], b.comps[b2]
	if ca == nil {
		ca = &liveComponent{shapes: make(map[string]struct{})}
		b.comps[a] = ca
	}
	if cb != nil {
		if len(cb.queries) > len(ca.queries) {
			// Keep the larger payload; only the root pointer follows rank.
			ca.queries, cb.queries = cb.queries, ca.queries
			ca.shapes, cb.shapes = cb.shapes, ca.shapes
			ca.first, cb.first = cb.first, ca.first
		}
		if len(cb.queries) > 0 {
			ca.first = min(ca.first, cb.first)
		}
		ca.queries = append(ca.queries, cb.queries...)
		for k := range cb.shapes {
			ca.shapes[k] = struct{}{}
		}
		if cb.last > ca.last {
			ca.last = cb.last
		}
		ca.reopened = ca.reopened || cb.reopened
		delete(b.comps, b2)
	}
	b.parent[b2] = a
	if b.rank[a] == b.rank[b2] {
		b.rank[a]++
	}
	return a
}
