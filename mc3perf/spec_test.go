package main

import (
	"sort"
	"testing"
	"time"
)

// fakeScenario does one op per run and checks nothing.
type fakeScenario struct{}

func (fakeScenario) setup() error { return nil }
func (fakeScenario) run(_ time.Time, t *tally) error {
	t.op(1, nil)
	t.cost, t.base = 7, 10
	return nil
}
func (fakeScenario) verify(*tally) error                { return nil }
func (fakeScenario) trace(*tally) (*traceReport, error) { return nil, nil }
func (fakeScenario) close()                             {}

func names[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The result lines must carry exactly the metrics BENCHMARK.json names, in
// its units: the end-to-end ones untraced, the per-layer ones traced.
func TestResultLinesMatchBenchmarkSpec(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got map[string]metric, want []specMetric) {
		t.Helper()
		units := map[string]string{}
		for _, m := range want {
			units[m.Name] = m.Unit
		}
		if g, w := names(got), names(units); len(g) != len(w) {
			t.Fatalf("%s metrics %v, BENCHMARK.json names %v", what, g, w)
		}
		for name, m := range got {
			if u, ok := units[name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s in %q, BENCHMARK.json has %q (present %v)", what, name, m.Unit, u, ok)
			}
		}
	}

	var tl tally
	e2e, _, err := timed(fakeScenario{}, time.Millisecond, &tl)
	if err != nil {
		t.Fatal(err)
	}
	e2e["setup_s"] = metric{1, "s"}
	check("end-to-end", e2e, spec.EndToEnd)

	p := newProbe()
	p.begin()
	p.log.close(p.log.beginOp())
	check("per-layer", p.report(1, time.Millisecond, time.Millisecond).metrics, spec.PerLayer)
}
