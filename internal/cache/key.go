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
// # Signature canonicalization
//
// A component's solve outcome is fully determined by its local structure:
// per residual query, the set of alive classifiers (query-local bitmask +
// effective cost), the query's already-covered property mask, and the
// cross-query identity of classifiers (which queries share which
// classifier). The signature encodes exactly that, with two canonical
// renamings applied so that structurally identical components met in
// different loads — different property names, different query order — map to
// the same key:
//
//   - queries are ordered by a local fingerprint (length, covered mask,
//     classifier masks and the exact IEEE-754 bits of their costs), not by
//     their instance indices;
//   - classifiers are numbered by first appearance in that canonical order,
//     not by their instance IDs.
//
// The full encoding is the map key (byte equality, no hash collisions), so
// equal keys imply an exact isomorphism between the components, under which
// a stored solution transfers soundly: the translated picks cover the new
// component at the same effective cost, bit for bit, so a hit returns what a
// fresh solve of the same signature returned. Renamings that permute
// properties *within* a query reorder its local bits and produce a different
// signature; that costs a miss, never a wrong hit. The algorithm domain
// (general vs k ≤ 2, set-cover method, max-flow engine) is part of the key,
// so different configurations never share entries.
//
// # The key kernel
//
// The signature is built on every cached component solve, so it is built
// without maps: fingerprints go back to back into one byte arena, queries
// are ordered by a sort over their positions, and classifiers are numbered
// through a dense array indexed by ClassifierID. That working memory is
// pooled; a call takes one scratch from the pool, clears the entries it
// numbered through the key's classifier list, and returns it, so concurrent
// calls never share scratch and no call pays for the instance's size.
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
// Key is invalid; build one with Cache.ComponentKey. A Key carries the
// local→global classifier mapping of the component it was built from, so the
// cache can translate stored solutions into the current instance's IDs.
type Key struct {
	id      string
	globals []core.ClassifierID // canonical local index → instance classifier ID
}

// Valid reports whether the key was successfully built.
func (k Key) Valid() bool { return k.id != "" }

// keyScratch is the working memory of ComponentKey and Store.
type keyScratch struct {
	arena []byte  // the component's query fingerprints, back to back
	off   []int32 // fingerprint i is arena[off[i]:off[i+1]]
	order []int32 // fingerprint positions in canonical order
	// local numbers classifiers: local index + 1 per ClassifierID, 0 for
	// one not numbered. Every call leaves it all zero.
	local   []int32
	globals []core.ClassifierID
	buf     []byte
}

var scratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// numbering returns the scratch's local array, grown to index IDs below n.
func (sc *keyScratch) numbering(n int) []int32 {
	if len(sc.local) < n {
		sc.local = make([]int32, n)
	}
	return sc.local
}

// ComponentKey builds the canonical signature of component comp (a slice of
// residual query indices, as produced by preprocessing) of r, under the
// given algorithm domain. A nil cache returns an invalid Key.
func (c *Cache) ComponentKey(domain string, r *prep.Result, comp []int) Key {
	if c == nil || len(comp) == 0 {
		return Key{}
	}
	inst := r.Inst
	sc := scratchPool.Get().(*keyScratch)
	defer scratchPool.Put(sc)

	// Pass 1: per-query local fingerprints — everything about the query
	// except cross-query classifier identity — into the arena.
	arena, off := sc.arena[:0], append(sc.off[:0], 0)
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
	sc.arena, sc.off = arena, off

	// Canonical query order: by fingerprint, original position breaking ties.
	// Tied queries are locally indistinguishable, so either order yields a
	// signature that transfers correctly; ties merely make two isomorphic
	// components *potentially* hash apart (an extra miss, never a wrong hit).
	order := sc.order[:0]
	for i := range comp {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := bytes.Compare(arena[off[a]:off[a+1]], arena[off[b]:off[b+1]]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	sc.order = order

	// Pass 2: number classifiers by first appearance in canonical order and
	// emit the final encoding: header, then per query its fingerprint plus
	// the local-ID sequence of its alive classifiers. Local IDs stay below
	// rows and no fingerprint is longer than the arena, which bounds the
	// encoding's length.
	size := len(domain) + 1 + uvarintLen(uint64(len(comp))) +
		len(comp)*uvarintLen(uint64(len(arena))) + len(arena) + rows*uvarintLen(uint64(rows))
	buf := slices.Grow(sc.buf[:0], size)
	local := sc.numbering(inst.NumClassifiers())
	globals := sc.globals[:0]
	buf = append(buf, domain...)
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(comp)))
	for _, i := range order {
		fp := arena[off[i]:off[i+1]]
		buf = binary.AppendUvarint(buf, uint64(len(fp)))
		buf = append(buf, fp...)
		for _, qc := range inst.QueryClassifiers(comp[i]) {
			if r.Removed[qc.ID] {
				continue
			}
			li := local[qc.ID]
			if li == 0 {
				globals = append(globals, qc.ID)
				li = int32(len(globals))
				local[qc.ID] = li
			}
			buf = binary.AppendUvarint(buf, uint64(li-1))
		}
	}
	for _, id := range globals {
		local[id] = 0
	}
	sc.buf, sc.globals = buf, globals
	return Key{id: string(buf), globals: slices.Clone(globals)}
}

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// encode translates picks (instance classifier IDs) into k's canonical
// local indices. It reports false when a pick is outside the component's
// classifier enumeration.
func (k Key) encode(picks []core.ClassifierID) ([]int32, bool) {
	n := 0
	for _, id := range k.globals {
		n = max(n, int(id)+1)
	}
	sc := scratchPool.Get().(*keyScratch)
	defer scratchPool.Put(sc)
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
