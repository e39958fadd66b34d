package solver

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/setcover"
)

// raceInstance is a tiny set-cover instance where greedy finds the optimal
// two-set cover.
func raceInstance() *setcover.Instance {
	sc := setcover.New(3)
	sc.AddSet([]int32{0, 1}, 2)
	sc.AddSet([]int32{2}, 1)
	sc.AddSet([]int32{0, 1, 2}, 5)
	return sc
}

func failingArm(name string, err error) wscArm {
	return wscArm{name, func(context.Context) ([]int, float64, error) {
		return nil, 0, err
	}}
}

// TestWSCRaceSurvivesEngineFailure: a non-context engine failure must not
// lose a completed result from another arm — in either order — and is
// counted in mc3_wsc_engine_failures.
func TestWSCRaceSurvivesEngineFailure(t *testing.T) {
	sc := raceInstance()
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		arms []wscArm
	}{
		{"failure-first", []wscArm{failingArm("bad", boom), {"greedy", sc.GreedyCtx}}},
		{"failure-last", []wscArm{{"greedy", sc.GreedyCtx}, failingArm("bad", boom)}},
	} {
		reg := obs.NewRegistry()
		wsp := obs.New().WithMetrics(reg).StartSpan(SpanWSC)
		sets, cost, name, err := runWSCEngines(context.Background(), wsp, tc.arms)
		wsp.End()
		if err != nil {
			t.Fatalf("%s: err = %v, want surviving result", tc.name, err)
		}
		if name != "greedy" || cost != 3 || len(sets) != 2 {
			t.Errorf("%s: got engine %q cost %v sets %v", tc.name, name, cost, sets)
		}
		if got := reg.Counter("mc3_wsc_engine_failures").Value(); got != 1 {
			t.Errorf("%s: mc3_wsc_engine_failures = %d, want 1", tc.name, got)
		}
	}
}

// TestWSCRaceAllEnginesFail: with no surviving arm the race reports every
// failure.
func TestWSCRaceAllEnginesFail(t *testing.T) {
	arms := []wscArm{
		failingArm("first", errors.New("first broke")),
		failingArm("second", errors.New("second broke")),
	}
	_, _, _, err := runWSCEngines(context.Background(), nil, arms)
	if err == nil {
		t.Fatal("want error when every engine fails")
	}
	for _, frag := range []string{"first broke", "second broke"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("joined error %q missing %q", err, frag)
		}
	}
}

// TestWSCRaceContextErrorFailsFast: a context error aborts the race even
// when an earlier arm completed — its cover would be discarded upstream.
func TestWSCRaceContextErrorFailsFast(t *testing.T) {
	sc := raceInstance()
	arms := []wscArm{{"greedy", sc.GreedyCtx}, failingArm("slow", context.DeadlineExceeded)}
	_, _, _, err := runWSCEngines(context.Background(), nil, arms)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
