// Package cache memoizes component solutions across solves.
//
// The paper's Algorithm 1 decomposes every load into property-disjoint
// residual components that are solved independently (Observation 3.2). Real
// query logs repeat: the same shop categories, the same popular property
// combinations, arrive again and again, so long-lived processes (cmd/mc3serve,
// repeated mc3bench iterations) keep re-solving structurally identical
// components. This package exploits that repetition: a concurrency-safe,
// bounded LRU cache keyed by a canonical signature of a residual component,
// storing the component's selected-classifier solution so a repeated
// component is answered in O(signature) instead of re-running the set-cover
// or max-flow machinery.
//
// # The canonical component
//
// A component's solve outcome is fully determined by its local structure:
// per residual query, the set of alive classifiers (query-local bitmask +
// effective cost), the query's already-covered property mask, and the
// cross-query identity of classifiers (which queries share which
// classifier). Canonical puts a component in one order that only this
// structure and the queries' properties define, whatever order the load
// presented them in:
//
//   - queries are sorted by a local fingerprint (length, covered mask,
//     classifier masks and the exact IEEE-754 bits of their costs), largest
//     first, ties broken by the query's property-ID tuple (identical
//     queries, kept under KeepDuplicateQueries, have identical rows, so
//     their order changes nothing);
//   - classifiers are numbered by first appearance in that order.
//
// Every residual solve reads its component in this order, cached or not,
// and the signature (Key) encodes it. The full encoding is the map key
// (byte equality, no hash collisions), so equal keys imply an exact
// isomorphism between the components, under which a stored solution
// transfers soundly: the translated picks cover the new component at the
// same effective cost, bit for bit. As the solvers read nothing but the
// canonical component, its cover is a function of the key bytes, and a hit
// returns what a fresh solve would. Isomorphic components under other
// property names share a key unless tied queries' property tuples order
// differently, and renamings that permute properties *within* a query
// reorder its local bits; either costs a miss, never a wrong hit. The
// algorithm domain (general vs k ≤ 2, set-cover method, max-flow engine) is
// part of the key, so different configurations never share entries.
//
// # The kernel
//
// The canonical component is built on every residual solve, without maps:
// fingerprints go back to back into one byte arena, one sort orders the
// queries, and one walk numbers the classifiers through a dense array
// indexed by ClassifierID. That scratch is pooled and held from Canonical
// to Release, which clears the entries it numbered, so concurrent solves
// never share scratch and no call pays for the instance's size. The key
// bytes are written only when a cache is attached, into that scratch too: a
// lookup reads them in place, and only a store that adds an entry copies
// them.
package cache

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/prep"
)

// Key identifies one residual component under one algorithm domain. The zero
// Key is invalid; build one with Canonical. A Key carries the local→global
// classifier mapping of the component it was built from, so the cache can
// translate stored solutions into the current instance's IDs.
//
// A Key views its Component's scratch: it is valid until the Component's
// Release, and must not be used after it. Cache.Store copies the signature
// when it adds an entry.
type Key struct {
	buf     []byte              // the signature, in Component.buf
	globals []core.ClassifierID // canonical local index → instance classifier ID: Component.Classifiers
}

// Valid reports whether the key was successfully built.
func (k Key) Valid() bool { return len(k.buf) > 0 }

// Component is a residual component in canonical order (see the package
// doc). Build one with Canonical and hand it back with Release; its fields
// and numbering stay valid until then and must not be modified.
type Component struct {
	// Queries holds the component's residual query indices in canonical
	// order.
	Queries []int
	// Classifiers lists the component's alive classifiers by local number:
	// the order of their first appearance along Queries.
	Classifiers []core.ClassifierID
	// Uncovered holds, per local number, how many still-uncovered query
	// properties the classifier tests over all of Queries.
	Uncovered []int32

	arena []byte  // query fingerprints in component order, back to back
	off   []int32 // fingerprint i is arena[off[i]:off[i+1]]
	order []int32 // component positions in canonical order
	// local is local number + 1 per ClassifierID, 0 for one not numbered.
	// Release leaves it all zero.
	local []int32
	buf   []byte
}

var componentPool = sync.Pool{New: func() any { return new(Component) }}

// numbering returns the scratch's local array, grown to index IDs below n.
func (cc *Component) numbering(n int) []int32 {
	if len(cc.local) < n {
		cc.local = make([]int32, n)
	}
	return cc.local
}

// Canonical puts component comp of r (residual query indices, as produced
// by preprocessing) in canonical order and returns it with its key for
// cache c under the given algorithm domain: one pass writes the
// fingerprints, one sort orders them, and one walk numbers the classifiers
// and writes the key bytes. The Key views the Component and is valid until
// its Release. With c nil it writes no key bytes and returns an invalid
// Key, as it does for an empty component.
func Canonical(c *Cache, domain string, r *prep.Result, comp []int) (*Component, Key) {
	inst := r.Inst
	cc := componentPool.Get().(*Component)

	// Per-query local fingerprints — everything about the query except
	// cross-query classifier identity — into the arena, sized up front for
	// ten bytes a row (a growing arena would allocate several times over).
	est := 0
	for _, qi := range comp {
		est += 2 + 10*len(inst.QueryClassifiers(qi))
	}
	arena, off := slices.Grow(cc.arena[:0], est), append(slices.Grow(cc.off[:0], len(comp)+1), 0)
	rows := 0 // alive classifier rows over all queries
	for _, qi := range comp {
		arena = binary.AppendUvarint(arena, uint64(inst.Query(qi).Len()))
		arena = binary.AppendUvarint(arena, r.CoveredMask[qi])
		for _, qc := range inst.QueryClassifiers(qi) {
			if r.Removed[qc.ID] {
				continue
			}
			arena = binary.AppendUvarint(arena, qc.Mask)
			arena = binary.AppendUvarint(arena, math.Float64bits(r.EffCost[qc.ID]))
			rows++
		}
		off = append(off, int32(len(arena)))
	}

	// Largest fingerprint first, then the property-ID tuple, then the
	// component position (reached only by identical queries).
	order := slices.Grow(cc.order[:0], len(comp))
	for i := range comp {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := bytes.Compare(arena[off[b]:off[b+1]], arena[off[a]:off[a+1]]); c != 0 {
			return c
		}
		if c := slices.Compare(inst.Query(comp[a]), inst.Query(comp[b])); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// Number the alive classifiers by first appearance in that order and
	// emit the key: a header, then per query its fingerprint plus the local
	// numbers of its alive classifiers. Local numbers stay below rows and no
	// fingerprint is longer than the arena, which bounds the key's length.
	keyed := c != nil && len(comp) > 0
	var buf []byte
	if keyed {
		size := len(domain) + 1 + uvarintLen(uint64(len(comp))) +
			len(comp)*uvarintLen(uint64(len(arena))) + len(arena) + rows*uvarintLen(uint64(rows))
		buf = append(slices.Grow(cc.buf[:0], size), domain...)
		buf = append(buf, 0)
		buf = binary.AppendUvarint(buf, uint64(len(comp)))
	}
	queries := slices.Grow(cc.Queries[:0], len(comp))
	globals, uncovered := slices.Grow(cc.Classifiers[:0], rows), slices.Grow(cc.Uncovered[:0], rows)
	local := cc.numbering(inst.NumClassifiers())
	for _, i := range order {
		qi := comp[i]
		queries = append(queries, qi)
		if keyed {
			fp := arena[off[i]:off[i+1]]
			buf = binary.AppendUvarint(buf, uint64(len(fp)))
			buf = append(buf, fp...)
		}
		covered := r.CoveredMask[qi]
		for _, qc := range inst.QueryClassifiers(qi) {
			if r.Removed[qc.ID] {
				continue
			}
			li := local[qc.ID]
			if li == 0 {
				globals, uncovered = append(globals, qc.ID), append(uncovered, 0)
				li = int32(len(globals))
				local[qc.ID] = li
			}
			uncovered[li-1] += int32(bits.OnesCount64(qc.Mask &^ covered))
			if keyed {
				buf = binary.AppendUvarint(buf, uint64(li-1))
			}
		}
	}
	cc.arena, cc.off, cc.order = arena, off, order
	cc.Queries, cc.Classifiers, cc.Uncovered = queries, globals, uncovered
	if !keyed {
		return cc, Key{}
	}
	cc.buf = buf
	return cc, Key{buf: buf, globals: globals}
}

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Local returns the local number of classifier id, or -1 for a classifier
// that is not an alive classifier of the component.
func (cc *Component) Local(id core.ClassifierID) int32 { return cc.local[id] - 1 }

// Release hands the component's scratch back to the pool. Neither cc nor
// the Key built with it may be used afterwards.
func (cc *Component) Release() {
	for _, id := range cc.Classifiers {
		cc.local[id] = 0
	}
	componentPool.Put(cc)
}

// encode translates picks (instance classifier IDs) into k's canonical
// local indices. It reports false when a pick is outside the component's
// classifier enumeration.
func (k Key) encode(picks []core.ClassifierID) ([]int32, bool) {
	n := 0
	for _, id := range k.globals {
		n = max(n, int(id)+1)
	}
	sc := componentPool.Get().(*Component)
	defer componentPool.Put(sc)
	local := sc.numbering(n)
	for i, id := range k.globals {
		local[id] = int32(i) + 1
	}
	enc := make([]int32, len(picks))
	ok := true
	for i, id := range picks {
		if id < 0 || int(id) >= n || local[id] == 0 {
			ok = false
			break
		}
		enc[i] = local[id] - 1
	}
	for _, id := range k.globals {
		local[id] = 0
	}
	return enc, ok
}
