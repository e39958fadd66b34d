package cluster

import (
	"fmt"
	"testing"
)

func testShards(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty address accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}); err == nil {
		t.Error("duplicate address accepted")
	}
}

// TestRingDeterministicUnderPermutation: the ring is canonical — the same
// membership in any order routes every key identically.
func TestRingDeterministicUnderPermutation(t *testing.T) {
	shards := testShards(5)
	r1, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	perm := []string{shards[3], shards[0], shards[4], shards[2], shards[1]}
	r2, err := NewRing(perm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("session-%d", i)
		if a, b := r1.Addr(r1.Primary(key)), r2.Addr(r2.Primary(key)); a != b {
			t.Fatalf("key %q: %s vs %s under permuted membership", key, a, b)
		}
	}
}

// TestRingBalance: with the default virtual-node count no shard owns a
// wildly disproportionate key share.
func TestRingBalance(t *testing.T) {
	const keys = 20000
	r, err := NewRing(testShards(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, r.Len())
	for i := 0; i < keys; i++ {
		counts[r.Primary(fmt.Sprintf("key-%d", i))]++
	}
	mean := float64(keys) / float64(r.Len())
	for i, c := range counts {
		if ratio := float64(c) / mean; ratio < 0.5 || ratio > 1.7 {
			t.Errorf("shard %d owns %d of %d keys (%.2fx mean) — ring badly unbalanced: %v",
				i, c, keys, ratio, counts)
		}
	}
}

// TestRingRebalance: removing one shard moves only the keys it owned —
// every other key keeps its shard (deterministic minimal rebalance).
func TestRingRebalance(t *testing.T) {
	shards := testShards(5)
	before, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	removed := shards[2]
	after, err := NewRing(append(append([]string{}, shards[:2]...), shards[3:]...))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 5000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		was := before.Addr(before.Primary(key))
		now := after.Addr(after.Primary(key))
		if was == removed {
			moved++
			continue // had to move
		}
		if was != now {
			t.Fatalf("key %q moved %s -> %s though its shard stayed in the ring", key, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed shard — test vacuous")
	}
	// The removed shard owned roughly 1/5 of the keyspace.
	if frac := float64(moved) / keys; frac > 0.35 {
		t.Errorf("removal moved %.0f%% of keys, want about 20%%", 100*frac)
	}
}

// TestRingSequence: the preference order visits every shard exactly once
// and starts at the primary.
func TestRingSequence(t *testing.T) {
	r, err := NewRing(testShards(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := r.Sequence(key)
		if len(seq) != r.Len() {
			t.Fatalf("key %q: sequence length %d, want %d", key, len(seq), r.Len())
		}
		if seq[0] != r.Primary(key) {
			t.Fatalf("key %q: sequence starts at %d, primary is %d", key, seq[0], r.Primary(key))
		}
		seen := make(map[int]bool, len(seq))
		for _, s := range seq {
			if seen[s] {
				t.Fatalf("key %q: shard %d repeated in sequence %v", key, s, seq)
			}
			seen[s] = true
		}
	}
}
