package core

import "math"

// PriceTable is a CostModel over an explicit list of priced property sets,
// stored flat: the entries sit back to back in one []PropID, and an
// open-addressed index, keyed by the additive set hash that C_Q enumeration
// computes, maps a set to its entry. A lookup hashes the set and probes
// once, allocating nothing, and NewInstance prices each enumerated subset
// with the hash it already holds. Sets the table does not hold cost Default
// (use math.Inf(1) to make unlisted classifiers unavailable).
//
// The zero value is an empty table with Default 0. Lookups may run
// concurrently with each other, not with Put.
type PriceTable struct {
	// Default prices every set the table does not hold.
	Default float64

	index setIndex // slot → offset of an entry in data
	// data holds the entries back to back, each as its length n, its n
	// members in canonical order, and the low and high halves of its
	// price's IEEE 754 bits.
	data []PropID
	n    int // entries
}

// NewPriceTable returns an empty table with the given default cost and room
// for entries sets holding members members in all, so that a table filled
// to that size allocates nothing more.
func NewPriceTable(def float64, entries, members int) *PriceTable {
	return &PriceTable{
		Default: def,
		index:   newSetIndex(entries),
		data:    make([]PropID, 0, 3*entries+members),
	}
}

// Len returns the number of sets the table prices.
func (t *PriceTable) Len() int { return t.n }

// Put prices the classifier testing exactly the properties in s, which
// must be canonical, as every PropSet is. A later Put of the same set
// replaces its price.
func (t *PriceTable) Put(s PropSet, c float64) {
	if 2*(t.n+1) > len(t.index.slots) {
		t.grow()
	}
	slot, off := t.find(setHash(s), s)
	if off == emptySlot {
		off = int32(len(t.data))
		t.index.slots[slot] = off
		t.data = append(append(t.data, PropID(len(s))), s...)
		t.data = append(t.data, 0, 0)
		t.n++
	}
	bits := math.Float64bits(c)
	at := off + 1 + int32(len(s))
	t.data[at], t.data[at+1] = PropID(uint32(bits)), PropID(uint32(bits>>32))
}

// Lookup returns the price of the classifier testing exactly s, and
// whether the table holds s.
func (t *PriceTable) Lookup(s PropSet) (float64, bool) {
	if t.n == 0 {
		return 0, false
	}
	return t.lookup(setHash(s), s)
}

// Cost implements CostModel.
func (t *PriceTable) Cost(s PropSet) float64 {
	if c, ok := t.Lookup(s); ok {
		return c
	}
	return t.Default
}

// price is Cost for a set whose setHash is h.
func (t *PriceTable) price(h uint64, s PropSet) float64 {
	if t.n > 0 {
		if c, ok := t.lookup(h, s); ok {
			return c
		}
	}
	return t.Default
}

// lookup is Lookup for a set whose setHash is h, in a table with entries.
func (t *PriceTable) lookup(h uint64, s PropSet) (float64, bool) {
	_, off := t.find(h, s)
	if off == emptySlot {
		return 0, false
	}
	at := off + 1 + int32(len(s))
	return math.Float64frombits(uint64(uint32(t.data[at])) | uint64(uint32(t.data[at+1]))<<32), true
}

// find probes for s, whose setHash is h. It returns the slot holding s's
// entry and the entry's offset in data, or the empty slot where s belongs
// and emptySlot.
func (t *PriceTable) find(h uint64, s PropSet) (int, int32) {
	return t.index.find(h, func(off int32) bool {
		if t.data[off] != PropID(len(s)) {
			return false
		}
		for i, p := range t.data[off+1 : off+1+int32(len(s))] {
			if p != s[i] {
				return false
			}
		}
		return true
	})
}

// grow doubles the index, or gives an empty table its first slots, and
// re-indexes every entry.
func (t *PriceTable) grow() {
	t.index = newSetIndex(max(len(t.index.slots), 1))
	for off := int32(0); off < int32(len(t.data)); off += 3 + int32(t.data[off]) {
		t.index.insert(setHash(PropSet(t.data[off+1:off+1+int32(t.data[off])])), off)
	}
}
