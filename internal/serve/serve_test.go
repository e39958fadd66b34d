package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/solver"
	"repro/internal/workload"
)

// testServer builds a handler with the default configuration, tweaked by fn.
func testServer(t testing.TB, fn func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CacheSize = 128
	cfg.ReqTimeout = 5 * time.Second
	cfg.MaxBody = 1 << 20
	cfg.MaxSessions = 8
	if fn != nil {
		fn(&cfg)
	}
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// paperInstance is the paper's running example in the wire format.
const paperInstance = `{
	"queries": [
		["team:juventus", "color:white", "brand:adidas"],
		["team:chelsea", "brand:adidas"],
		["color:white", "brand:adidas"]
	],
	"default_cost": 10,
	"costs": {
		"brand:adidas": 4,
		"color:white": 5,
		"team:chelsea": 7,
		"team:juventus": 6,
		"brand:adidas|color:white": 8,
		"brand:adidas|team:chelsea": 9
	}
}`

func postSolve(t *testing.T, s *Server, body string) (*httptest.ResponseRecorder, solveResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var resp solveResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad JSON response: %v\n%s", err, rec.Body)
		}
	}
	return rec, resp
}

func TestSolveEndpoint(t *testing.T) {
	s := testServer(t, nil)
	rec, resp := postSolve(t, s, paperInstance)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if resp.Cost <= 0 || len(resp.Classifiers) == 0 {
		t.Fatalf("implausible solution: %+v", resp)
	}
	if resp.Queries != 3 {
		t.Errorf("queries = %d, want 3", resp.Queries)
	}
	if resp.Algorithm != "general" {
		t.Errorf("algorithm = %q, want general (max query length 3)", resp.Algorithm)
	}
}

// TestPickAlgorithmAutoGate: the "auto" label follows solver.Auto's static
// k ≤ 2 gate, and the picked solver returns Auto's solution.
func TestPickAlgorithmAutoGate(t *testing.T) {
	d := workload.Synthetic(200, 4)
	for _, tc := range []struct {
		d    *workload.Dataset
		want string
	}{
		{d.ShortSlice(), "ktwo"},
		{d, "general"},
	} {
		inst, err := tc.d.Instance()
		if err != nil {
			t.Fatal(err)
		}
		fn, label := pickAlgorithm("auto", inst)
		if label != tc.want {
			t.Errorf("max query length %d: auto picked %q, want %q", inst.MaxQueryLen(), label, tc.want)
		}
		got, err := fn(inst, solver.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := solver.Auto(inst, solver.DefaultOptions())
		if err != nil {
			t.Fatalf("solver.Auto: %v", err)
		}
		if got.Cost != want.Cost || !slices.Equal(got.Selected, want.Selected) {
			t.Errorf("%s: cost %v, solver.Auto %v", label, got.Cost, want.Cost)
		}
	}
}

func TestSolveCacheAmortization(t *testing.T) {
	s := testServer(t, nil)
	rec1, resp1 := postSolve(t, s, paperInstance)
	if rec1.Code != http.StatusOK {
		t.Fatalf("first solve: status %d: %s", rec1.Code, rec1.Body)
	}
	rec2, resp2 := postSolve(t, s, paperInstance)
	if rec2.Code != http.StatusOK {
		t.Fatalf("second solve: status %d: %s", rec2.Code, rec2.Body)
	}
	if resp1.Cost != resp2.Cost {
		t.Fatalf("repeat solve changed cost: %v vs %v", resp1.Cost, resp2.Cost)
	}
	if !(resp2.CacheHitRate > 0) {
		t.Errorf("second identical solve reported hit rate %v, want > 0", resp2.CacheHitRate)
	}

	// The /stats endpoint must agree.
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if st.Requests != 2 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 2 requests, 0 errors", st)
	}
	if st.Cache.Hits == 0 {
		t.Errorf("stats cache hits = 0, want > 0 (%+v)", st.Cache)
	}
}

func TestSolveCacheDisabled(t *testing.T) {
	s := testServer(t, func(c *Config) { c.CacheSize = 0 })
	for i := 0; i < 2; i++ {
		rec, resp := postSolve(t, s, paperInstance)
		if rec.Code != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if resp.CacheHitRate != 0 {
			t.Errorf("cache disabled but hit rate = %v", resp.CacheHitRate)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	s := testServer(t, nil)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed JSON", `{"queries": [`, http.StatusBadRequest},
		{"empty load", `{"queries": []}`, http.StatusBadRequest},
		// All classifiers priced +Inf by omission: infeasible.
		{"infeasible", `{"queries": [["a", "b"]], "costs": {}}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, _ := postSolve(t, s, tc.body)
			if rec.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.code, rec.Body)
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("error body not JSON {error}: %s", rec.Body)
			}
		})
	}
}

func TestSolveBodyLimit(t *testing.T) {
	s := testServer(t, func(c *Config) { c.MaxBody = 64 })
	var big bytes.Buffer
	big.WriteString(`{"queries": [`)
	for i := 0; i < 100; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString(`["p1", "p2"]`)
	}
	big.WriteString(`], "uniform_cost": 1}`)
	rec, _ := postSolve(t, s, big.String())
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	s := testServer(t, nil)
	postSolve(t, s, paperInstance)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	for _, name := range []string{"mc3serve_requests_total", "mc3serve_solve_seconds", "mc3_cache_misses_total"} {
		if !strings.Contains(rec.Body.String(), name) {
			t.Errorf("metrics exposition lacks %s", name)
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	// A denser random load with an unreachable deadline: the solve must be
	// cut off and answered as 504. Timeout 1ns cannot complete even the
	// preprocessing checkpoint.
	s := testServer(t, func(c *Config) { c.ReqTimeout = time.Nanosecond })
	rec, _ := postSolve(t, s, paperInstance)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Algo = "nope" },
		func(c *Config) { c.WSC = "nope" },
		func(c *Config) { c.Prep = "nope" },
		func(c *Config) { c.Engine = "nope" },
	}
	for i, fn := range bad {
		cfg := Config{Algo: "auto", WSC: "auto", Prep: "full", Engine: "dinic"}
		fn(&cfg)
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}
