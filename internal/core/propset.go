package core

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// PropSet is a canonical set of properties: sorted ascending with no
// duplicates. Queries and classifiers are both PropSets; the paper denotes a
// query {x,y} as xy and the classifier testing the same conjunction as XY.
//
// PropSets are treated as immutable values: operations return new sets and
// never modify their receivers.
type PropSet []PropID

// NewPropSet builds a canonical PropSet from ids (sorting and deduplicating).
func NewPropSet(ids ...PropID) PropSet {
	if len(ids) == 0 {
		return nil
	}
	s := make(PropSet, len(ids))
	copy(s, ids)
	slices.Sort(s)
	// Deduplicate in place.
	w := 1
	for r := 1; r < len(s); r++ {
		if s[r] != s[w-1] {
			s[w] = s[r]
			w++
		}
	}
	return s[:w]
}

// Len returns the number of properties in the set — the paper's "length" of
// a query or classifier.
func (s PropSet) Len() int { return len(s) }

// Empty reports whether the set has no properties.
func (s PropSet) Empty() bool { return len(s) == 0 }

// Key returns a compact string usable as a map key. Two PropSets have equal
// keys iff they are equal sets.
func (s PropSet) Key() string {
	if len(s) == 0 {
		return ""
	}
	b := make([]byte, 0, len(s)*4)
	return string(s.AppendKey(b))
}

// AppendKey appends the byte encoding underlying Key to dst and returns the
// extended slice. Hot paths use it with a reusable buffer and look maps up
// via m[string(buf)] — a pattern the compiler compiles without allocating —
// so a key string is only ever materialized when a new map entry is stored.
func (s PropSet) AppendKey(dst []byte) []byte {
	for _, id := range s {
		dst = append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return dst
}

// KeyToPropSet inverts Key. It returns nil if key is not a valid encoding.
func KeyToPropSet(key string) PropSet {
	if len(key)%4 != 0 {
		return nil
	}
	s := make(PropSet, 0, len(key)/4)
	for i := 0; i < len(key); i += 4 {
		id := PropID(key[i])<<24 | PropID(key[i+1])<<16 | PropID(key[i+2])<<8 | PropID(key[i+3])
		s = append(s, id)
	}
	return s
}

// Contains reports whether p is a member of s.
func (s PropSet) Contains(p PropID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= p })
	return i < len(s) && s[i] == p
}

// SubsetOf reports whether every member of s is in t.
func (s PropSet) SubsetOf(t PropSet) bool {
	if len(s) > len(t) {
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s)
}

// Equal reports whether s and t are the same set.
func (s PropSet) Equal(t PropSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one property.
func (s PropSet) Intersects(t PropSet) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			return true
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Union returns the set union of s and t.
func (s PropSet) Union(t PropSet) PropSet {
	out := make(PropSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		default:
			out = append(out, t[j])
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns the set intersection of s and t.
func (s PropSet) Intersect(t PropSet) PropSet {
	var out PropSet
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Minus returns the set difference s \ t.
func (s PropSet) Minus(t PropSet) PropSet {
	var out PropSet
	j := 0
	for _, p := range s {
		for j < len(t) && t[j] < p {
			j++
		}
		if j < len(t) && t[j] == p {
			continue
		}
		out = append(out, p)
	}
	return out
}

// SubsetByMask returns the subset of s selected by mask: bit i of mask keeps
// s[i]. It panics if s has more than 64 members.
func (s PropSet) SubsetByMask(mask uint64) PropSet {
	if len(s) > 64 {
		panic("core: PropSet too large for mask subset")
	}
	out := make(PropSet, 0, len(s))
	for i := 0; i < len(s); i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, s[i])
		}
	}
	return out
}

// MaskIn returns the bitmask of s's members relative to superset q: bit i is
// set iff q[i] ∈ s. The second result is false if s is not a subset of q or
// q has more than 64 members.
func (s PropSet) MaskIn(q PropSet) (uint64, bool) {
	if len(q) > 64 || len(s) > len(q) {
		return 0, false
	}
	var mask uint64
	i, j := 0, 0
	for i < len(s) && j < len(q) {
		switch {
		case s[i] == q[j]:
			mask |= 1 << uint(j)
			i++
			j++
		case s[i] > q[j]:
			j++
		default:
			return 0, false
		}
	}
	if i != len(s) {
		return 0, false
	}
	return mask, true
}

// String formats the set as e.g. "{3,7,12}" using raw IDs. For named output
// use Universe.SetNames.
func (s PropSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(id)))
	}
	b.WriteByte('}')
	return b.String()
}
