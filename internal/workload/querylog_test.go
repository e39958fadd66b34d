package workload

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/solver"
)

const sampleLog = `
# soccer shirts, curated from user sessions
team:juventus, color:white, brand:adidas
team:chelsea, brand:adidas

color:white   # a singleton query
team:juventus, color:white, brand:adidas
`

func TestParseQueryLog(t *testing.T) {
	u := core.NewUniverse()
	queries, err := ParseQueryLog(strings.NewReader(sampleLog), u)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 4 {
		t.Fatalf("queries = %d, want 4 (duplicates kept)", len(queries))
	}
	if queries[0].Len() != 3 || queries[1].Len() != 2 || queries[2].Len() != 1 {
		t.Errorf("query lengths wrong: %v", queries)
	}
	if !queries[0].Equal(queries[3]) {
		t.Error("identical lines must parse to equal queries")
	}
	if u.Size() != 4 {
		t.Errorf("universe size = %d, want 4 distinct properties", u.Size())
	}
}

// toleranceCases are messy but valid logs, shared by both parser forms and
// the fuzz seeds: the query count and lengths each must parse to.
var toleranceCases = []struct {
	name, log string
	queries   int
	lens      []int
}{
	{"crlf line endings", "a,b\r\nc\r\n", 2, []int{2, 1}},
	{"crlf with trailing blank", "a,b\r\n\r\n", 1, []int{2}},
	{"whitespace-padded properties", "  a , b\t,  c  \n", 1, []int{3}},
	{"duplicate property in one line", "a,b,a\n", 1, []int{2}},
	{"padded duplicate collapses", "a, a ,b\n", 1, []int{2}},
	{"comment after crlf query", "a,b # padded\r\n", 1, []int{2}},
}

func TestParseQueryLogTolerance(t *testing.T) {
	for _, tc := range toleranceCases {
		t.Run(tc.name, func(t *testing.T) {
			u := core.NewUniverse()
			queries, err := ParseQueryLog(strings.NewReader(tc.log), u)
			if err != nil {
				t.Fatal(err)
			}
			if len(queries) != tc.queries {
				t.Fatalf("queries = %d, want %d", len(queries), tc.queries)
			}
			for i, want := range tc.lens {
				if queries[i].Len() != want {
					t.Errorf("query %d length = %d, want %d", i, queries[i].Len(), want)
				}
			}
		})
	}
}

// errorCases are logs both parser forms reject, shared with the fuzz seeds,
// with the line the error must name ("" when no line is at fault).
func errorCases() []struct{ name, log, wantLine string } {
	overlong := make([]string, core.MaxEnumQueryLen+1)
	for i := range overlong {
		overlong[i] = "p" + strings.Repeat("x", i+1)
	}
	return []struct{ name, log, wantLine string }{
		{"empty log", "", ""},
		{"comment-only log", "# only comments\n", ""},
		{"empty property", "a,,b\n", "line 1"},
		{"empty property with padding", "a, ,b\n", "line 1"},
		{"trailing comma", "ok\na,b,\n", "line 2"},
		{"overlong query", "ok\nok2\n" + strings.Join(overlong, ",") + "\n", "line 3"},
		{"line over the scanner limit", "ok\n" + strings.Repeat("a", 1<<20+1) + "\n", "workload: line 2:"},
	}
}

func TestParseQueryLogErrors(t *testing.T) {
	for _, tc := range errorCases() {
		t.Run(tc.name, func(t *testing.T) {
			u := core.NewUniverse()
			_, err := ParseQueryLog(strings.NewReader(tc.log), u)
			if err == nil {
				t.Fatal("want error")
			}
			if tc.wantLine != "" && !strings.Contains(err.Error(), tc.wantLine) {
				t.Errorf("error %q does not name %s", err, tc.wantLine)
			}
		})
	}
	if _, err := ParseQueryLog(strings.NewReader("a\n"), nil); err == nil {
		t.Error("nil universe must error")
	}
}

func TestParseQueryLogDuplicateAtLimit(t *testing.T) {
	// Exactly MaxEnumQueryLen distinct properties is legal, even when the
	// raw line lists one of them twice.
	props := make([]string, core.MaxEnumQueryLen)
	for i := range props {
		props[i] = "q" + strings.Repeat("y", i+1)
	}
	line := strings.Join(props, ",") + "," + props[0] + "\n"
	u := core.NewUniverse()
	queries, err := ParseQueryLog(strings.NewReader(line), u)
	if err != nil {
		t.Fatal(err)
	}
	if queries[0].Len() != core.MaxEnumQueryLen {
		t.Errorf("length = %d, want %d", queries[0].Len(), core.MaxEnumQueryLen)
	}
}

func TestDatasetFromLogEndToEnd(t *testing.T) {
	d, err := DatasetFromLog("shirts", strings.NewReader(sampleLog), core.UniformCost(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxCost != 2 {
		t.Errorf("MaxCost = %v", d.MaxCost)
	}
	inst, err := d.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumQueries() != 3 {
		t.Errorf("instance queries = %d, want 3 after dedup", inst.NumQueries())
	}
	sol, err := solver.General(inst, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(sol); err != nil {
		t.Fatal(err)
	}
	// Short slice plugs into the existing machinery.
	short := d.ShortSlice()
	if len(short.Queries) != 2 {
		t.Errorf("short slice = %d queries, want 2", len(short.Queries))
	}
}
