package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
)

// SyntheticStream emits the synthetic workload (same length and pool
// mechanics as Synthetic) one query at a time through emit, never holding
// the load in memory — the feeder for 10M+ query experiments. Queries are
// emitted as property-name slices so the consumer decides whether to intern
// (streamed solve) or print (query-log emission).
//
// The stream is split into `partitions` property-disjoint segments emitted
// sequentially, each with its own property namespace and pool: partition p
// of count c gets pool size c/t with its own t ~ U[2, √c] and names
// "s<p>_p<i>". Partitioned streams have perfect property locality, so a
// streamed solve with a seal window can retire every earlier partition's
// components while later partitions are still generating — the shape that
// makes peak memory proportional to a partition, not the load. partitions
// ≤ 1 reproduces exactly Synthetic's single-pool shape under names "p<i>".
//
// Deterministic in (n, seed, partitions): the same triple yields the same
// query sequence byte for byte.
func SyntheticStream(n int64, seed int64, partitions int, emit func(props []string) error) error {
	if n < 1 {
		return fmt.Errorf("workload: SyntheticStream needs n ≥ 1")
	}
	if emit == nil {
		return fmt.Errorf("workload: SyntheticStream needs an emit function")
	}
	if partitions < 1 {
		partitions = 1
	}
	if int64(partitions) > n {
		partitions = int(n)
	}
	per := n / int64(partitions)
	rem := n % int64(partitions)
	for p := 0; p < partitions; p++ {
		count := per
		if int64(p) < rem {
			count++
		}
		prefix := ""
		if partitions > 1 {
			prefix = "s" + strconv.Itoa(p) + "_"
		}
		if err := streamPartition(count, seed+int64(p), prefix, emit); err != nil {
			return err
		}
	}
	return nil
}

// streamPartition emits one partition's count queries: pool of count/t
// property names (t ~ U[2, √count]), lengths geometric with cap
// SyntheticMaxLen — Synthetic's generation loop without the materialized
// Dataset.
func streamPartition(count, seed int64, prefix string, emit func(props []string) error) error {
	rng := rand.New(rand.NewSource(seed))
	sqrtN := int(math.Sqrt(float64(count)))
	if sqrtN < 2 {
		sqrtN = 2
	}
	t := 2
	if sqrtN > 2 {
		t = 2 + rng.Intn(sqrtN-1) // uniform in [2, sqrtN]
	}
	poolSize := int(count) / t
	if poolSize < SyntheticMaxLen {
		poolSize = SyntheticMaxLen
	}
	pool := make([]string, poolSize)
	for i := range pool {
		pool[i] = prefix + syntheticPropName(i)
	}

	props := make([]string, 0, SyntheticMaxLen)
	var seen [SyntheticMaxLen]int
	for emitted := int64(0); emitted < count; {
		l := sampleGeometricLength(rng)
		if l > SyntheticMaxLen {
			continue // omitted per the paper
		}
		props = props[:0]
		picked := seen[:0]
	draw:
		for len(props) < l {
			i := rng.Intn(poolSize)
			for _, j := range picked {
				if i == j {
					continue draw
				}
			}
			picked = append(picked, i)
			props = append(props, pool[i])
		}
		if err := emit(props); err != nil {
			return err
		}
		emitted++
	}
	return nil
}

// ParseCostModel parses a classifier cost-model spec for the streaming CLIs
// (a streamed solve has no Dataset to carry a model):
//
//   - "uniform:C"      — every classifier costs C (C > 0);
//   - "synthetic:SEED" — the synthetic generator's content-addressed
//     integer costs in [1, 50] under SEED.
//
// Synthetic costs hash interned property IDs, so a streamed and a
// materialized solve price classifiers alike only when they intern the
// stream's properties in the same order. Nothing else in a solve depends on
// the order its queries arrive in.
func ParseCostModel(spec string) (core.CostModel, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("workload: cost model %q: want KIND:ARG (uniform:C or synthetic:SEED)", spec)
	}
	switch kind {
	case "uniform":
		c, err := strconv.ParseFloat(arg, 64)
		if err != nil || math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
			return nil, fmt.Errorf("workload: cost model %q: uniform cost must be a positive number", spec)
		}
		return core.CostFunc(func(s core.PropSet) float64 { return c }), nil
	case "synthetic":
		seed, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: cost model %q: synthetic seed must be an integer", spec)
		}
		return core.CostFunc(func(s core.PropSet) float64 {
			return uniformIntCost(seed, "synthetic", s, SyntheticCostLo, SyntheticCostHi)
		}), nil
	default:
		return nil, fmt.Errorf("workload: cost model %q: unknown kind %q (want uniform or synthetic)", spec, kind)
	}
}
