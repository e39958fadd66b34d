// Package incr is the incremental solve engine: it owns a live MC³ load —
// universe, query multiset, cost model — and keeps its solution current
// under batched deltas (add query, remove query, update classifier cost)
// without re-solving the whole load.
//
// The paper's Algorithm 1 decomposes every load into property-disjoint
// residual components that are solved independently (Observation 3.2), which
// makes the problem naturally *locally* updatable: a delta can only change
// the solution of the components whose properties it touches. The engine
// maintains a property→component index — a union-find over the
// property-sharing graph, with lazy per-component rebuilds when a removal
// may have split a component — marks the touched components dirty, and on
// each Apply re-runs preprocessing plus the configured solver on the dirty
// components only. The global solution and its cost are composed from the
// per-component results; clean components contribute their previous
// solutions unchanged. An internal/cache LRU is consulted on every
// component solve, so a component that re-merges into a shape isomorphic to
// anything solved before (by this engine or by any other user of a shared
// cache) is answered from memory without running the set-cover or max-flow
// machinery at all.
//
// # Differential correctness
//
// After any delta sequence the engine's solution cost equals a from-scratch
// solve of the materialized load under the same solver options. Two details
// make this exact rather than approximate:
//
//   - Component solves pass solver.Options.AmbientQueryLen = the load's
//     maximal query length, so preprocessing gates the paper's k = 2 Step 4
//     exactly as a whole-load solve would (a short component inside a long
//     load must skip Step 4).
//   - When the load's maximal query length crosses the k = 2 boundary the
//     algorithm choice (Algorithm 2 vs Algorithm 3 under "auto") and the
//     Step 4 gate both flip for *every* component, so the engine dirties
//     all of them.
//
// Within a fixed gate, each residual component is solved in its canonical
// order (internal/cache), which only the component's structure defines. A
// component instance materialized in any query order therefore makes the
// same decisions as the whole-load solve, and the composed cost is
// bit-identical, not merely close.
package incr

import (
	"fmt"
	"strings"
)

// Op is a delta operation.
type Op uint8

const (
	// OpAdd inserts one occurrence of a query into the load.
	OpAdd Op = iota
	// OpRemove deletes one occurrence of a query from the load. Removing a
	// query that is not present is an error.
	OpRemove
	// OpUpdateCost overrides the construction cost of the classifier
	// testing exactly the given properties. The override persists for the
	// lifetime of the load and applies to every current and future query.
	OpUpdateCost
)

// String returns the stream-format verb for the operation.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpRemove:
		return "rm"
	case OpUpdateCost:
		return "cost"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// ParseOp inverts Op.String, also accepting the long verbs used by the
// mc3serve wire format ("remove", "update-cost").
func ParseOp(s string) (Op, error) {
	switch strings.ToLower(s) {
	case "add":
		return OpAdd, nil
	case "rm", "remove", "del":
		return OpRemove, nil
	case "cost", "update-cost":
		return OpUpdateCost, nil
	default:
		return 0, fmt.Errorf("incr: unknown op %q", s)
	}
}

// Delta is one mutation of the live load.
type Delta struct {
	// Time is the event's timestamp in seconds from the start of the
	// stream. The engine ignores it; replay tooling batches and paces by
	// it.
	Time float64 `json:"time,omitempty"`
	// Op selects the mutation.
	Op Op `json:"-"`
	// Props are the property names of the query (OpAdd/OpRemove) or of the
	// classifier being re-priced (OpUpdateCost).
	Props []string `json:"props"`
	// Cost is the new classifier cost (OpUpdateCost only). Non-negative;
	// +Inf makes the classifier unavailable.
	Cost float64 `json:"cost,omitempty"`
}

// Add returns an OpAdd delta for the given query properties.
func Add(props ...string) Delta { return Delta{Op: OpAdd, Props: props} }

// Remove returns an OpRemove delta for the given query properties.
func Remove(props ...string) Delta { return Delta{Op: OpRemove, Props: props} }

// UpdateCost returns an OpUpdateCost delta re-pricing the classifier that
// tests exactly the given properties.
func UpdateCost(cost float64, props ...string) Delta {
	return Delta{Op: OpUpdateCost, Props: props, Cost: cost}
}
