package solver

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prep"
)

// LPLowerBound computes a certified lower bound on the optimal MC³ solution
// cost: preprocessing's forced selections (contained in some optimal
// solution, Section 3) plus, per residual component, the LP-relaxation value
// of the component's Weighted Set Cover reduction (a lower bound by weak
// duality). Any feasible solution's cost is ≥ the returned value, which
// makes certified approximation-ratio measurement possible without the
// exponential exact oracle.
//
// The LP is solved with the dense simplex; keep residual components at a
// few thousand classifiers or less (preprocessing usually shrinks far below
// that).
func LPLowerBound(inst *core.Instance, opts Options) (float64, error) {
	r, err := prep.Run(inst, opts.Prep)
	if err != nil {
		return 0, err
	}
	bound := 0.0
	for _, id := range r.Selected {
		bound += inst.Cost(id)
	}
	for _, comp := range r.Components {
		cc, _ := cache.Canonical(nil, "", r, comp)
		sc, _ := buildWSC(r, cc)
		cc.Release()
		if sc.NumElements() == 0 {
			continue
		}
		// DualCertificate re-verifies the bound from first principles
		// (dual feasibility), so a simplex bug cannot produce an unsound
		// bound — at worst a weaker one.
		v, _, err := sc.DualCertificate()
		if err != nil {
			return 0, err
		}
		bound += v
	}
	return bound, nil
}
