package solver

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"repro/internal/core"
)

// Explanation decomposes a solution for human review: per query, the
// specific classifiers whose conjunction answers it; per classifier, how
// many queries reuse it. This is the artifact a data-science team would act
// on — a training work order with its justification.
type Explanation struct {
	// QueryCovers[i] lists, for query i, the selected classifiers assigned
	// to cover it (an irredundant subset whose union is the query).
	QueryCovers [][]core.ClassifierID
	// Reuse[id] is the number of queries classifier id participates in
	// covering — the sharing that makes MC³ beat per-query training.
	Reuse map[core.ClassifierID]int
}

// Explain builds an Explanation for a valid solution. For each query it
// assigns a greedy irredundant sub-cover from the selected classifiers
// (largest contribution first, ties to cheaper classifiers). It fails if
// the solution does not cover the instance.
func Explain(inst *core.Instance, sol *core.Solution) (*Explanation, error) {
	if err := inst.Verify(sol); err != nil {
		return nil, fmt.Errorf("solver: cannot explain an invalid solution: %w", err)
	}
	in := make([]bool, inst.NumClassifiers())
	for _, id := range sol.Selected {
		in[id] = true
	}

	ex := &Explanation{
		QueryCovers: make([][]core.ClassifierID, inst.NumQueries()),
		Reuse:       make(map[core.ClassifierID]int),
	}
	for qi := 0; qi < inst.NumQueries(); qi++ {
		full := inst.FullMask(qi)
		// Candidates: selected classifiers inside this query.
		var cands []core.QueryClassifier
		for _, qc := range inst.QueryClassifiers(qi) {
			if in[qc.ID] {
				cands = append(cands, qc)
			}
		}
		var cover []core.ClassifierID
		var have uint64
		for have != full {
			best := -1
			bestGain := 0
			for ci, qc := range cands {
				gain := bits.OnesCount64(qc.Mask &^ have)
				if gain > bestGain ||
					(gain == bestGain && gain > 0 && best >= 0 && inst.Cost(qc.ID) < inst.Cost(cands[best].ID)) {
					best = ci
					bestGain = gain
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("solver: internal error: query %d not coverable during explanation", qi)
			}
			have |= cands[best].Mask
			cover = append(cover, cands[best].ID)
		}
		// Drop redundant members (reverse scan).
		cover = pruneRedundant(inst, qi, cover)
		sort.Slice(cover, func(a, b int) bool { return cover[a] < cover[b] })
		ex.QueryCovers[qi] = cover
		for _, id := range cover {
			ex.Reuse[id]++
		}
	}
	return ex, nil
}

// pruneRedundant removes cover members whose mask is already covered by the
// rest.
func pruneRedundant(inst *core.Instance, qi int, cover []core.ClassifierID) []core.ClassifierID {
	full := inst.FullMask(qi)
	masks := make([]uint64, len(cover))
	for i, id := range cover {
		// A cover of qi holds only classifiers of qi, subsets of it.
		masks[i], _ = inst.Classifier(id).MaskIn(inst.Query(qi))
	}
	kept := append([]core.ClassifierID(nil), cover...)
	for i := len(kept) - 1; i >= 0; i-- {
		var rest uint64
		for j := range kept {
			if j != i {
				rest |= masks[j]
			}
		}
		if rest == full {
			kept = append(kept[:i], kept[i+1:]...)
			masks = append(masks[:i], masks[i+1:]...)
		}
	}
	return kept
}

// Render writes the explanation as text: each query with its assigned
// cover, then the most-reused classifiers.
func (ex *Explanation) Render(w io.Writer, inst *core.Instance) {
	for qi, cover := range ex.QueryCovers {
		fmt.Fprintf(w, "query %v is answered by:\n", inst.Universe.SetNames(inst.Query(qi)))
		for _, id := range cover {
			fmt.Fprintf(w, "  %v (cost %g, reused by %d queries)\n",
				inst.Universe.SetNames(inst.Classifier(id)), inst.Cost(id), ex.Reuse[id])
		}
	}
}
