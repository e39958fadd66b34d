package core

import (
	"math/bits"
	"testing"
)

// FuzzPropSetAlgebra drives the set operations with arbitrary bit patterns
// and cross-checks them against uint64 bit arithmetic (the reference model
// for sets over a small ID range).
func FuzzPropSetAlgebra(f *testing.F) {
	f.Add(uint64(0b1011), uint64(0b0110))
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(1))

	fromBits := func(m uint64) PropSet {
		var ids []PropID
		for m != 0 {
			ids = append(ids, PropID(bits.TrailingZeros64(m)))
			m &= m - 1
		}
		return NewPropSet(ids...)
	}
	toBits := func(s PropSet) uint64 {
		var m uint64
		for _, id := range s {
			m |= 1 << uint(id)
		}
		return m
	}

	f.Fuzz(func(t *testing.T, a, b uint64) {
		sa, sb := fromBits(a), fromBits(b)
		if got := toBits(sa.Union(sb)); got != a|b {
			t.Fatalf("Union: %b, want %b", got, a|b)
		}
		if got := toBits(sa.Intersect(sb)); got != a&b {
			t.Fatalf("Intersect: %b, want %b", got, a&b)
		}
		if got := toBits(sa.Minus(sb)); got != a&^b {
			t.Fatalf("Minus: %b, want %b", got, a&^b)
		}
		if got := sa.SubsetOf(sb); got != (a&^b == 0) {
			t.Fatalf("SubsetOf: %v, want %v", got, a&^b == 0)
		}
		if got := sa.Intersects(sb); got != (a&b != 0) {
			t.Fatalf("Intersects: %v, want %v", got, a&b != 0)
		}
		if !fromBits(a).Equal(sa) {
			t.Fatal("fromBits not stable")
		}
		if (sa.Key() == sb.Key()) != (a == b) {
			t.Fatal("Key equality disagrees with set equality")
		}
		if !KeyToPropSet(sa.Key()).Equal(sa) {
			t.Fatal("Key round trip failed")
		}
	})
}

// FuzzAppendKeyCanonical pins the byte-encoded canonical key that cost-table
// lookups and the streaming builder's shape map build (AppendKey into a
// reused buffer; C_Q enumeration no longer keys by it) to the string key it
// replaced: identical bytes, lossless round trip, and collision-free — keys
// compare equal iff the sets are equal, including across sets encoded into
// the same reused buffer.
func FuzzAppendKeyCanonical(f *testing.F) {
	f.Add(int32(0), int32(1), int32(2), int32(3))
	f.Add(int32(7), int32(7), int32(7), int32(7))
	f.Add(int32(1<<30), int32(255), int32(256), int32(65536))
	f.Add(int32(0), int32(0), int32(0), int32(0))

	f.Fuzz(func(t *testing.T, p0, p1, p2, p3 int32) {
		if p0 < 0 || p1 < 0 || p2 < 0 || p3 < 0 {
			t.Skip("PropIDs are non-negative")
		}
		sa := NewPropSet(PropID(p0), PropID(p1))
		sb := NewPropSet(PropID(p2), PropID(p3))

		buf := make([]byte, 0, 16)
		ka := string(sa.AppendKey(buf[:0]))
		kb := string(sb.AppendKey(buf[:0])) // same buffer, reused

		if ka != sa.Key() {
			t.Fatalf("AppendKey %q differs from Key %q", ka, sa.Key())
		}
		if kb != sb.Key() {
			t.Fatalf("AppendKey %q differs from Key %q after buffer reuse", kb, sb.Key())
		}
		if (ka == kb) != sa.Equal(sb) {
			t.Fatalf("key collision: %v vs %v encode to %q vs %q", sa, sb, ka, kb)
		}
		if !KeyToPropSet(ka).Equal(sa) {
			t.Fatalf("byte key round trip failed for %v", sa)
		}
	})
}
