package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzParseQueryLog checks the query-log parser on arbitrary input:
//   - no input panics;
//   - every query it emits is non-empty, sorted, free of duplicates and at
//     most core.MaxEnumQueryLen long;
//   - ParseQueryLog and ParseQueryLogFunc agree, on the queries or on the
//     error;
//   - an accepted log, re-rendered one query per line and parsed again,
//     gives the same property sets.
//
// The seeds are the table tests' logs.
func FuzzParseQueryLog(f *testing.F) {
	f.Add(sampleLog)
	for _, tc := range toleranceCases {
		f.Add(tc.log)
	}
	for _, tc := range errorCases() {
		if len(tc.log) <= 4096 {
			f.Add(tc.log)
		}
	}

	f.Fuzz(func(t *testing.T, data string) {
		u := core.NewUniverse()
		queries, err := ParseQueryLog(strings.NewReader(data), u)

		uf := core.NewUniverse()
		var streamed []core.PropSet
		errf := ParseQueryLogFunc(strings.NewReader(data), uf, func(q core.PropSet) error {
			streamed = append(streamed, q)
			return nil
		})
		if (err == nil) != (errf == nil) || (err != nil && err.Error() != errf.Error()) {
			t.Fatalf("forms disagree on the error: %v vs %v", err, errf)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(names(u, queries), names(uf, streamed)) {
			t.Fatalf("forms disagree on the queries:\n%q\n%q", names(u, queries), names(uf, streamed))
		}

		for i, q := range queries {
			if q.Empty() || q.Len() > core.MaxEnumQueryLen {
				t.Fatalf("query %d has length %d", i, q.Len())
			}
			for j := 1; j < q.Len(); j++ {
				if q[j-1] >= q[j] {
					t.Fatalf("query %d is not sorted and duplicate-free: %v", i, q)
				}
			}
		}

		var b strings.Builder
		for _, q := range queries {
			b.WriteString(strings.Join(u.SetNames(q), ","))
			b.WriteByte('\n')
		}
		u2 := core.NewUniverse()
		again, err := ParseQueryLog(strings.NewReader(b.String()), u2)
		if err != nil {
			t.Fatalf("re-rendered log does not parse: %v\nrendered: %q", err, b.String())
		}
		if !reflect.DeepEqual(names(u, queries), names(u2, again)) {
			t.Fatalf("round trip changed the queries:\n%q\n%q", names(u, queries), names(u2, again))
		}
	})
}

// names renders each query as its sorted property names.
func names(u *core.Universe, qs []core.PropSet) [][]string {
	out := make([][]string, len(qs))
	for i, q := range qs {
		out[i] = u.SetNames(q)
	}
	return out
}
