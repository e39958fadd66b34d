package workload

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// renderStream runs SyntheticStream and renders it to the query-log text
// format.
func renderStream(t *testing.T, n, seed int64, partitions int) string {
	t.Helper()
	var b strings.Builder
	err := SyntheticStream(n, seed, partitions, func(props []string) error {
		b.WriteString(strings.Join(props, ","))
		b.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSyntheticStreamDeterministic(t *testing.T) {
	a := renderStream(t, 1000, 42, 4)
	b := renderStream(t, 1000, 42, 4)
	if a != b {
		t.Fatal("same (n, seed, partitions) must emit byte-identical streams")
	}
	if c := renderStream(t, 1000, 43, 4); c == a {
		t.Error("different seeds should differ")
	}
	if lines := strings.Count(a, "\n"); lines != 1000 {
		t.Errorf("emitted %d queries, want 1000", lines)
	}
}

func TestSyntheticStreamPartitionsDisjoint(t *testing.T) {
	part := func(p string) string { return strings.SplitN(p, "_", 2)[0] }
	err := SyntheticStream(2000, 1, 4, func(props []string) error {
		if len(props) < 1 || len(props) > SyntheticMaxLen {
			return fmt.Errorf("query length %d out of range", len(props))
		}
		first := part(props[0])
		for _, p := range props {
			if part(p) != first {
				return fmt.Errorf("query mixes partitions: %v", props)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticStreamSinglePartitionMatchesSynthetic(t *testing.T) {
	// partitions ≤ 1 uses the plain "p<i>" namespace and one pool — the
	// materialized generator's shape.
	s := renderStream(t, 500, 3, 1)
	if strings.Contains(s, "_") {
		t.Error("single-partition stream must not namespace properties")
	}
}

func TestSyntheticStreamErrors(t *testing.T) {
	if err := SyntheticStream(0, 1, 1, func([]string) error { return nil }); err == nil {
		t.Error("n = 0 must error")
	}
	if err := SyntheticStream(10, 1, 1, nil); err == nil {
		t.Error("nil emit must error")
	}
	abort := fmt.Errorf("stop")
	if err := SyntheticStream(10, 1, 1, func([]string) error { return abort }); err != abort {
		t.Errorf("emit error must propagate, got %v", err)
	}
}

func TestParseCostModel(t *testing.T) {
	u := core.NewUniverse()
	s := core.NewPropSet(u.Intern("a"), u.Intern("b"))

	cm, err := ParseCostModel("uniform:2.5")
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.Cost(s); got != 2.5 {
		t.Errorf("uniform cost = %g, want 2.5", got)
	}

	cm, err = ParseCostModel("synthetic:7")
	if err != nil {
		t.Fatal(err)
	}
	c := cm.Cost(s)
	if c < SyntheticCostLo || c > SyntheticCostHi {
		t.Errorf("synthetic cost %g outside [%d, %d]", c, SyntheticCostLo, SyntheticCostHi)
	}
	if c != cm.Cost(s) {
		t.Error("synthetic costs must be deterministic")
	}

	for _, bad := range []string{"", "uniform", "uniform:0", "uniform:-1", "uniform:x", "synthetic:x", "zipf:1"} {
		if _, err := ParseCostModel(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestParseQueryLogFuncStreaming(t *testing.T) {
	// The func variant must see exactly the queries the slice variant
	// returns, in order, without materializing.
	u1 := core.NewUniverse()
	want, err := ParseQueryLog(strings.NewReader(sampleLog), u1)
	if err != nil {
		t.Fatal(err)
	}
	u2 := core.NewUniverse()
	var got []core.PropSet
	if err := ParseQueryLogFunc(strings.NewReader(sampleLog), u2, func(q core.PropSet) error {
		got = append(got, q)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("func variant saw %d queries, slice variant %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("query %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestParseQueryLogFuncTolerance(t *testing.T) {
	// The same tolerance cases the slice variant passes.
	for _, tc := range toleranceCases {
		t.Run(tc.name, func(t *testing.T) {
			u := core.NewUniverse()
			var lens []int
			if err := ParseQueryLogFunc(strings.NewReader(tc.log), u, func(q core.PropSet) error {
				lens = append(lens, q.Len())
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(lens) != tc.queries {
				t.Fatalf("queries = %d, want %d", len(lens), tc.queries)
			}
			for i, want := range tc.lens {
				if lens[i] != want {
					t.Errorf("query %d length = %d, want %d", i, lens[i], want)
				}
			}
		})
	}
}

func TestParseQueryLogFuncErrors(t *testing.T) {
	u := core.NewUniverse()
	// Empty log errors like the slice variant.
	err := ParseQueryLogFunc(strings.NewReader("# only comments\n"), u, func(core.PropSet) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no queries") {
		t.Errorf("empty log: got %v", err)
	}
	// Callback errors abort parsing and propagate verbatim.
	abort := fmt.Errorf("enough")
	n := 0
	err = ParseQueryLogFunc(strings.NewReader("a\nb\nc\n"), u, func(core.PropSet) error {
		n++
		if n == 2 {
			return abort
		}
		return nil
	})
	if err != abort {
		t.Errorf("want callback error back, got %v", err)
	}
	if n != 2 {
		t.Errorf("parsed %d queries after abort, want 2", n)
	}
	// Empty property still names the line.
	err = ParseQueryLogFunc(strings.NewReader("a\n,b\n"), u, func(core.PropSet) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("empty-property error should name line 2, got %v", err)
	}
}
