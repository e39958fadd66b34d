package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/solver"
)

// fuzzLoad is the session every FuzzSessionDelta input starts from. Its
// default cost is finite, so every classifier is available and every load
// a delta batch can leave is solvable.
const fuzzLoad = `{
	"queries": [["a", "b"], ["b", "c"], ["d"], ["e", "f", "g"]],
	"default_cost": 4,
	"costs": {"a": 1, "b": 2, "c": 1, "d": 3, "a|b": 2, "e|f": 2, "e|f|g": 5}
}`

// FuzzSessionDelta posts arbitrary bodies to /session/{id}/delta of a fresh
// session. Every answer must be 200, 400, 413 or 422, the handler must not
// panic, a rejected batch must leave the universe alone, and after every
// answer the session's cost must equal an uncached from-scratch solve of
// its load.
func FuzzSessionDelta(f *testing.F) {
	for _, body := range []string{
		`{"deltas":[]}`,
		`{"deltas":[{"op":"add","props":["a","c"]}]}`,
		`{"deltas":[{"op":"rm","props":["a","b"]},{"op":"add","props":["a","b","x"]}]}`,
		`{"deltas":[{"op":"rm","props":["b","c"]},{"op":"rm","props":["a","b"]}]}`,
		`{"deltas":[{"op":"update-cost","props":["b"],"cost":0.5},{"op":"cost","props":["b"],"cost":7}]}`,
		`{"deltas":[{"op":"cost","props":["x","y"],"cost":1},{"op":"add","props":["x","y"]}]}`,
		`{"deltas":[{"op":"add","props":["d","e"]},{"op":"rm","props":["d","e"]}]}`,
		`{"deltas":[{"op":"remove","props":["ghost1","ghost2"]}]}`,
		`{"deltas":[{"op":"cost","props":["ghost"],"cost":-1}]}`,
		`{"deltas":[{"op":"add","props":["a",""]}]}`,
		`{"deltas":[{"op":"frobnicate","props":["a"]}]}`,
		`{"deltas":[{"op":"add","props":["a"],"extra":1}]}`,
		`{"deltas":[{"op":"add","props":["p1","p2","p3","p4","p5","p6","p7","p8","p9","p10","p11","p12","p13","p14","p15","p16","p17","p18","p19","p20","p21"]}]}`,
		`{"deltas":[{"op":"add","props":["a"]}` + strings.Repeat(` `, 5000) + `]}`,
		`{"deltas":`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	s := testServer(f, func(c *Config) {
		c.MaxBody = 4096
		c.ReqTimeout = 0
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		if tooCostly(body) {
			return
		}
		load := createSession(t, s, fuzzLoad)
		defer s.sessions.drop(load.Session)
		engine := s.sessions.get(load.Session).engine
		size := engine.Universe().Size()

		rec := doJSON(t, s, http.MethodPost, "/session/"+load.Session+"/delta", string(body), nil)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if got := engine.Universe().Size(); rec.Code != http.StatusOK && got != size {
			t.Fatalf("status %d grew the universe from %d to %d names", rec.Code, size, got)
		}
		got, err := engine.Solution()
		if err != nil {
			t.Fatalf("Solution after status %d: %v", rec.Code, err)
		}
		if rec.Code == http.StatusOK {
			var dr sessionResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
				t.Fatalf("bad JSON response: %v\n%s", err, rec.Body)
			}
			if !sameCost(dr.Cost, got.Cost) {
				t.Fatalf("answered cost %v, session solution %v", dr.Cost, got.Cost)
			}
		}
		if want := fromScratchCost(t, s, engine); !sameCost(got.Cost, want) {
			t.Fatalf("session cost %v, from-scratch cost %v", got.Cost, want)
		}
	})
}

// tooCostly reports whether body adds a query of 13 to MaxEnumQueryLen
// distinct properties: a valid batch whose C_Q enumeration alone would
// take the fuzzer seconds. Longer queries are rejected before any work.
func tooCostly(body []byte) bool {
	var req deltaRequest
	if json.Unmarshal(body, &req) != nil {
		return false
	}
	for _, d := range req.Deltas {
		if op, err := incr.ParseOp(d.Op); err != nil || op != incr.OpAdd {
			continue
		}
		distinct := make(map[string]bool, len(d.Props))
		for _, p := range d.Props {
			distinct[p] = true
		}
		if n := len(distinct); n > 12 && n <= core.MaxEnumQueryLen {
			return true
		}
	}
	return false
}

// fromScratchCost solves the session's materialized load under the server's
// solver options, without the cache, as one whole load.
func fromScratchCost(t *testing.T, s *Server, e *incr.Engine) float64 {
	t.Helper()
	qs := e.QuerySets()
	if len(qs) == 0 {
		return 0
	}
	inst, err := core.NewInstance(e.Universe(), qs, e.CostModel(), core.Options{})
	if err != nil {
		t.Fatalf("from-scratch instance: %v", err)
	}
	fn := solver.General
	if inst.MaxQueryLen() <= 2 {
		fn = solver.KTwo
	}
	opts := s.opts
	opts.Cache, opts.Tracer = nil, nil
	sol, err := fn(inst, opts)
	if err != nil {
		t.Fatalf("from-scratch solve: %v", err)
	}
	return sol.Cost
}

// sameCost compares two totals of the same picks. A session sums its
// components' costs and a whole-load solve its picks' costs, in different
// orders, so fuzzed fractional costs may round apart in the last bits.
func sameCost(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
