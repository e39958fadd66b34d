package solver

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// feedQueries returns a SolveStream feed replaying a materialized query
// slice — the differential harness's way of presenting the exact same load
// to both arms.
func feedQueries(qs []core.PropSet) func(add func(core.PropSet) error) error {
	return func(add func(core.PropSet) error) error {
		for _, q := range qs {
			if err := add(q); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestSolveStreamMatchesGeneral: a finish-only streamed solve must land on
// exactly the whole-load General cost on every dataset family.
func TestSolveStreamMatchesGeneral(t *testing.T) {
	cases := []struct {
		name string
		d    *workload.Dataset
	}{
		{"synthetic", workload.Synthetic(3000, 3)},
		{"bestbuy", workload.BestBuy(3)},
		{"private", workload.Private(3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := tc.d.Instance()
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Validate = true
			sol, err := General(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := SolveStream(tc.d.Universe, tc.d.Costs, feedQueries(tc.d.Queries), StreamConfig{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != sol.Cost {
				t.Errorf("streamed cost %g != whole-load %g", res.Cost, sol.Cost)
			}
			if res.Distinct != int64(inst.NumQueries()) {
				t.Errorf("distinct %d != instance queries %d", res.Distinct, inst.NumQueries())
			}
			if len(res.Classifiers) != len(sol.Selected) {
				t.Errorf("classifiers %d != whole-load %d", len(res.Classifiers), len(sol.Selected))
			}
		})
	}
}

// TestSolveStreamMidStreamSeal: on a partitioned stream, mid-stream sealing
// with the true ambient query length must stay cost-identical to the
// materialized whole-load solve — while actually retiring components before
// the stream ends.
func TestSolveStreamMidStreamSeal(t *testing.T) {
	const n, parts = 12000, 4
	u := core.NewUniverse()
	var queries []core.PropSet
	maxLen := 0
	err := workload.SyntheticStream(n, 17, parts, func(props []string) error {
		ids := make([]core.PropID, len(props))
		for i, p := range props {
			ids[i] = u.Intern(p)
		}
		q := core.NewPropSet(ids...)
		if q.Len() > maxLen {
			maxLen = q.Len()
		}
		queries = append(queries, q)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := workload.ParseCostModel("synthetic:17")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(u, queries, cm, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Validate = true
	sol, err := General(inst, opts)
	if err != nil {
		t.Fatal(err)
	}

	var peakSealedEarly int
	cfg := StreamConfig{
		SealWindow:      n / parts / 4,
		SealEvery:       128,
		AmbientQueryLen: maxLen,
		Progress: func(st core.StreamStats) {
			if st.SealedComponents > peakSealedEarly {
				peakSealedEarly = st.SealedComponents
			}
		},
		ProgressEvery: 1000,
	}
	res, err := SolveStream(u, cm, feedQueries(queries), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != sol.Cost {
		t.Errorf("mid-stream-sealed cost %g != whole-load %g", res.Cost, sol.Cost)
	}
	if res.Components != parts {
		t.Errorf("components = %d, want %d (one per partition)", res.Components, parts)
	}
	if peakSealedEarly == 0 {
		t.Error("no component sealed before the stream ended; the window never fired")
	}
	if res.PeakLiveQueries >= int(res.Distinct) {
		t.Errorf("peak live %d not below distinct %d — sealing freed nothing", res.PeakLiveQueries, res.Distinct)
	}
}

// TestSolveStreamSealPoolParallelism: TestSolveStreamMidStreamSeal's load,
// solved with Parallelism 0, 4 and -1 in both the seal pool
// (StreamConfig) and the per-component solve (Options) — mc3solve
// -parallel sets both — must give the materialized cost and one classifier
// list.
func TestSolveStreamSealPoolParallelism(t *testing.T) {
	const n, parts = 12000, 4
	u := core.NewUniverse()
	var queries []core.PropSet
	maxLen := 0
	err := workload.SyntheticStream(n, 17, parts, func(props []string) error {
		ids := make([]core.PropID, len(props))
		for i, p := range props {
			ids[i] = u.Intern(p)
		}
		q := core.NewPropSet(ids...)
		maxLen = max(maxLen, q.Len())
		queries = append(queries, q)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := workload.ParseCostModel("synthetic:17")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(u, queries, cm, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := General(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	var first *StreamResult
	for _, par := range []int{0, 4, -1} {
		opts := DefaultOptions()
		opts.Validate = true
		opts.Parallelism = par
		cfg := StreamConfig{SealWindow: n / parts / 4, SealEvery: 128, AmbientQueryLen: maxLen, Parallelism: par}
		res, err := SolveStream(u, cm, feedQueries(queries), cfg, opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if res.Cost != sol.Cost {
			t.Errorf("parallelism %d: cost %g != whole-load %g", par, res.Cost, sol.Cost)
		}
		if first == nil {
			first = res
			continue
		}
		if len(res.Classifiers) != len(first.Classifiers) {
			t.Fatalf("parallelism %d: %d classifiers, serial %d", par, len(res.Classifiers), len(first.Classifiers))
		}
		for i := range res.Classifiers {
			if !res.Classifiers[i].Equal(first.Classifiers[i]) {
				t.Fatalf("parallelism %d: classifier %d differs from the serial solve's", par, i)
			}
		}
	}
}

// TestSolveStreamDeterministic: two identical streamed solves must agree
// bit-for-bit on the classifier list.
func TestSolveStreamDeterministic(t *testing.T) {
	d := workload.Synthetic(2500, 9)
	opts := DefaultOptions()
	run := func() *StreamResult {
		t.Helper()
		res, err := SolveStream(d.Universe, d.Costs, feedQueries(d.Queries), StreamConfig{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cost != b.Cost || len(a.Classifiers) != len(b.Classifiers) {
		t.Fatalf("runs differ: %g/%d vs %g/%d", a.Cost, len(a.Classifiers), b.Cost, len(b.Classifiers))
	}
	for i := range a.Classifiers {
		if !a.Classifiers[i].Equal(b.Classifiers[i]) {
			t.Fatalf("classifier %d differs between identical runs", i)
		}
	}
}

// TestSolveStreamErrors covers the error surface: empty stream, sealed
// reappearance without AllowReopen, nil arguments.
func TestSolveStreamErrors(t *testing.T) {
	u := core.NewUniverse()
	cm := core.UniformCost(1)
	if _, err := SolveStream(u, cm, feedQueries(nil), StreamConfig{}, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "no queries") {
		t.Errorf("empty stream: got %v", err)
	}
	if _, err := SolveStream(nil, cm, feedQueries(nil), StreamConfig{}, DefaultOptions()); err == nil {
		t.Error("nil universe accepted")
	}
	if _, err := SolveStream(u, nil, feedQueries(nil), StreamConfig{}, DefaultOptions()); err == nil {
		t.Error("nil cost model accepted")
	}
	if _, err := SolveStream(u, cm, nil, StreamConfig{}, DefaultOptions()); err == nil {
		t.Error("nil feed accepted")
	}

	// A stream without locality plus an aggressive window: the sealed
	// property reappears and the strict default must surface the error.
	mk := func(names ...string) core.PropSet {
		ids := make([]core.PropID, len(names))
		for i, n := range names {
			ids[i] = u.Intern(n)
		}
		return core.NewPropSet(ids...)
	}
	qs := []core.PropSet{mk("a", "b")}
	for i := 0; i < 50; i++ {
		qs = append(qs, mk("x", "y"))
	}
	qs = append(qs, mk("a", "c"))
	_, err := SolveStream(u, cm, feedQueries(qs), StreamConfig{SealWindow: 8, SealEvery: 1}, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "AllowReopen") {
		t.Fatalf("want sealed-reappearance error, got %v", err)
	}

	// AllowReopen turns the same stream into a feasible upper-bound solve.
	res, err := SolveStream(u, cm, feedQueries(qs), StreamConfig{SealWindow: 8, SealEvery: 1, AllowReopen: true}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 {
		t.Errorf("reopen solve cost %g", res.Cost)
	}
}
