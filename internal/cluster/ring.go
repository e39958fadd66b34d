// Package cluster scales mc3serve horizontally: a consistent-hash shard
// ring maps sessions (stateful traffic) and solve payloads (stateless
// traffic) onto N shared-nothing mc3serve shards, and a Router process
// proxies the HTTP API with /readyz health probing, circuit breaking, and
// budgeted sequential failover. A multi-process replay harness (Harness +
// ReplayBundle) drives a router plus K shards with recorded delta streams
// and hard-differential-checks the cluster's costs against single-process
// incremental engines after every batch.
//
// The design follows the routing template of "Efficient Routing for Cost
// Effective Scale-out Data Architectures" (see PAPERS.md): a thin stateless
// routing tier over replicated shards with replica selection by consistent
// hashing.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerShard is the number of virtual nodes per shard. 64 points per
// shard keeps the maximum/mean key-share ratio within a few percent for
// small fleets while the ring stays tiny (K·64 points).
const vnodesPerShard = 64

// ringPoint is one virtual node: a position on the hash circle owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring over a fixed shard membership list. The
// ring is immutable after construction — membership changes build a new
// Ring, and because every shard's virtual-node positions depend only on its
// own address, removing a shard reassigns only the keys it owned
// (deterministic minimal rebalance; see TestRingRebalance).
type Ring struct {
	shards []string
	points []ringPoint
}

// NewRing builds a ring over the given shard addresses with vnodesPerShard
// virtual nodes per shard. Addresses must be non-empty and distinct; order
// does not matter (the ring is canonical under permutation because point
// positions hash the address, not the index).
func NewRing(shards []string) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	sorted := append([]string(nil), shards...)
	sort.Strings(sorted)
	seen := make(map[string]bool, len(sorted))
	for _, s := range sorted {
		if s == "" {
			return nil, fmt.Errorf("cluster: empty shard address")
		}
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate shard address %q", s)
		}
		seen[s] = true
	}
	r := &Ring{shards: sorted}
	r.points = make([]ringPoint, 0, len(sorted)*vnodesPerShard)
	for i, addr := range sorted {
		for v := 0; v < vnodesPerShard; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(addr, v), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (astronomically rare) break deterministically by shard.
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// pointHash positions virtual node v of a shard on the circle.
func pointHash(addr string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	h.Write([]byte{'#'})
	var buf [4]byte
	buf[0] = byte(v)
	buf[1] = byte(v >> 8)
	buf[2] = byte(v >> 16)
	buf[3] = byte(v >> 24)
	h.Write(buf[:])
	return mix(h.Sum64())
}

// KeyHash positions a routing key on the circle.
func KeyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix(h.Sum64())
}

// mix is the splitmix64 finalizer. Raw FNV-1a of near-identical strings
// (shard addresses differing in the port, vnode counters differing in one
// byte) leaves the high bits — which dominate ring ordering — correlated
// enough to skew arc lengths by >2x; the finalizer's avalanche restores the
// ~uniform point spread consistent hashing assumes.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Shards returns the membership list (sorted, deduplicated).
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// Len returns the number of shards.
func (r *Ring) Len() int { return len(r.shards) }

// Addr returns the address of shard i.
func (r *Ring) Addr(i int) string { return r.shards[i] }

// Primary returns the shard owning key: the shard of the first virtual node
// at or clockwise of the key's hash.
func (r *Ring) Primary(key string) int {
	return r.points[r.search(KeyHash(key))].shard
}

// search finds the index of the first point at or after h, wrapping.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Sequence returns all shards in ring order starting from key's position,
// each exactly once: the preference order for replica selection and
// retries. Sequence(key)[0] == Primary(key).
func (r *Ring) Sequence(key string) []int {
	out := make([]int, 0, len(r.shards))
	seen := make([]bool, len(r.shards))
	start := r.search(KeyHash(key))
	for i := 0; i < len(r.points) && len(out) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
