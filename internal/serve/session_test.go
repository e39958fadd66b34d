package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// doJSON sends a request and decodes a JSON body into out (when non-nil and
// the response has one).
func doJSON(t *testing.T, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON: %v\n%s", method, path, err, rec.Body)
		}
	}
	return rec
}

func createSession(t *testing.T, s *Server, instance string) sessionResponse {
	t.Helper()
	var resp sessionResponse
	rec := doJSON(t, s, http.MethodPost, "/load", instance, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /load: status %d: %s", rec.Code, rec.Body)
	}
	if resp.Session == "" {
		t.Fatalf("POST /load: no session id: %s", rec.Body)
	}
	return resp
}

func TestSessionLifecycle(t *testing.T) {
	s := testServer(t, nil)

	// The session's initial solve must agree with the stateless endpoint.
	_, want := postSolve(t, s, paperInstance)
	load := createSession(t, s, paperInstance)
	if load.Cost != want.Cost {
		t.Fatalf("session load cost %v, /solve cost %v", load.Cost, want.Cost)
	}

	// Apply a batch: drop the Juventus query, re-price a singleton.
	var dr sessionResponse
	rec := doJSON(t, s, http.MethodPost, "/session/"+load.Session+"/delta",
		`{"deltas":[
			{"op":"rm","props":["team:juventus","color:white","brand:adidas"]},
			{"op":"cost","props":["team:chelsea"],"cost":1}
		]}`, &dr)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST delta: status %d: %s", rec.Code, rec.Body)
	}
	if dr.Deltas != 2 {
		t.Fatalf("delta response: %+v", dr)
	}

	// Differential check through the public API: a stateless solve of the
	// materialized load must agree with the incremental cost.
	_, fresh := postSolve(t, s, `{
		"queries": [["team:chelsea","brand:adidas"], ["color:white","brand:adidas"]],
		"default_cost": 10,
		"costs": {
			"brand:adidas": 4, "color:white": 5, "team:chelsea": 1,
			"team:juventus": 6, "brand:adidas|color:white": 8,
			"brand:adidas|team:chelsea": 9
		}
	}`)
	if dr.Cost != fresh.Cost {
		t.Fatalf("incremental cost %v, from-scratch cost %v", dr.Cost, fresh.Cost)
	}

	var sol struct {
		Session     string     `json:"session"`
		Cost        float64    `json:"cost"`
		Classifiers [][]string `json:"classifiers"`
	}
	rec = doJSON(t, s, http.MethodGet, "/session/"+load.Session+"/solution", "", &sol)
	if rec.Code != http.StatusOK || sol.Cost != dr.Cost || len(sol.Classifiers) == 0 {
		t.Fatalf("GET solution: %d %+v", rec.Code, sol)
	}

	if rec = doJSON(t, s, http.MethodDelete, "/session/"+load.Session, "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", rec.Code)
	}
	if rec = doJSON(t, s, http.MethodGet, "/session/"+load.Session+"/solution", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("solution after delete: status %d, want 404", rec.Code)
	}
}

func TestSessionDeltaLocality(t *testing.T) {
	s := testServer(t, nil)
	load := createSession(t, s, `{
		"queries": [["a","b"], ["c","d"], ["e","f"]],
		"uniform_cost": 2
	}`)
	if load.Components != 3 {
		t.Fatalf("load: %d components, want 3", load.Components)
	}
	var dr sessionResponse
	rec := doJSON(t, s, http.MethodPost, "/session/"+load.Session+"/delta",
		`{"deltas":[{"op":"add","props":["a","x"]}]}`, &dr)
	if rec.Code != http.StatusOK {
		t.Fatalf("delta: %d %s", rec.Code, rec.Body)
	}
	if dr.Dirty != 1 || dr.Reused != 2 {
		t.Fatalf("locality not reported: dirty %d, reused %d", dr.Dirty, dr.Reused)
	}
}

func TestSessionErrors(t *testing.T) {
	s := testServer(t, nil)
	load := createSession(t, s, paperInstance)

	cases := []struct {
		name, method, path, body string
		code                     int
	}{
		{"unknown session delta", http.MethodPost, "/session/nope/delta", `{"deltas":[]}`, http.StatusNotFound},
		{"unknown session solution", http.MethodGet, "/session/nope/solution", "", http.StatusNotFound},
		{"unknown session delete", http.MethodDelete, "/session/nope", "", http.StatusNotFound},
		{"bad algo", http.MethodPost, "/load?algo=portfolio", paperInstance, http.StatusBadRequest},
		{"malformed load", http.MethodPost, "/load", `{"queries": [`, http.StatusBadRequest},
		{"bad op", http.MethodPost, "/session/" + load.Session + "/delta",
			`{"deltas":[{"op":"frobnicate","props":["a"]}]}`, http.StatusBadRequest},
		{"remove absent", http.MethodPost, "/session/" + load.Session + "/delta",
			`{"deltas":[{"op":"rm","props":["ghost"]}]}`, http.StatusUnprocessableEntity},
		// ktwo session with a length-3 query: the load itself is invalid.
		{"ktwo long load", http.MethodPost, "/load?algo=ktwo", paperInstance, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doJSON(t, s, tc.method, tc.path, tc.body, nil)
			if rec.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.code, rec.Body)
			}
		})
	}
}

// TestDeltaBodyLimit: a delta batch over MaxBody gets 413, as /solve and
// /load bodies do.
func TestDeltaBodyLimit(t *testing.T) {
	s := testServer(t, func(c *Config) { c.MaxBody = 256 })
	load := createSession(t, s, `{"queries": [["a", "b"]], "uniform_cost": 1}`)
	var body strings.Builder
	body.WriteString(`{"deltas": [`)
	for i := 0; i < 50; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, `{"op":"add","props":["a","p%d"]}`, i)
	}
	body.WriteString(`]}`)
	rec := doJSON(t, s, http.MethodPost, "/session/"+load.Session+"/delta", body.String(), nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
}

func TestSessionLimit(t *testing.T) {
	s := testServer(t, func(c *Config) { c.MaxSessions = 1 })
	createSession(t, s, paperInstance)
	rec := doJSON(t, s, http.MethodPost, "/load", paperInstance, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second load: status %d, want 429: %s", rec.Code, rec.Body)
	}
}

func TestSessionStatsSurface(t *testing.T) {
	s := testServer(t, nil)
	load := createSession(t, s, paperInstance)
	doJSON(t, s, http.MethodPost, "/session/"+load.Session+"/delta",
		`{"deltas":[{"op":"add","props":["team:chelsea"]}]}`, nil)

	var st statsResponse
	rec := doJSON(t, s, http.MethodGet, "/stats", "", &st)
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d", rec.Code)
	}
	if st.Sessions.Count != 1 || st.Sessions.Applies != 2 || st.Sessions.Queries == 0 {
		t.Fatalf("session stats not surfaced: %+v", st.Sessions)
	}
}

// TestRequestCountsOncePerRequest: every instrumented request is counted
// exactly once, in /stats and mc3serve_requests_total alike, so errors can
// never outnumber the requests that failed.
func TestRequestCountsOncePerRequest(t *testing.T) {
	s := testServer(t, nil)
	check := func(step string, requests, errs int64) {
		t.Helper()
		var st statsResponse
		if rec := doJSON(t, s, http.MethodGet, "/stats", "", &st); rec.Code != http.StatusOK {
			t.Fatalf("%s: /stats: %d", step, rec.Code)
		}
		if st.Requests != requests || st.Errors != errs {
			t.Errorf("%s: /stats requests=%d errors=%d, want %d/%d", step, st.Requests, st.Errors, requests, errs)
		}
		total := s.registry.Counter("mc3serve_requests_total").Value()
		failed := s.registry.Counter("mc3serve_errors_total").Value()
		if total != requests || failed != errs {
			t.Errorf("%s: mc3serve_requests_total=%d mc3serve_errors_total=%d, want %d/%d", step, total, failed, requests, errs)
		}
	}
	send := func(method, path, body string, code int) {
		t.Helper()
		if rec := doJSON(t, s, method, path, body, nil); rec.Code != code {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, code, rec.Body)
		}
	}

	send(http.MethodGet, "/session/nope/solution", "", http.StatusNotFound)
	send(http.MethodDelete, "/session/nope", "", http.StatusNotFound)
	check("after two 404s", 2, 2)

	// The successful flows still count one request each.
	send(http.MethodPost, "/solve", paperInstance, http.StatusOK)
	id := "/session/" + createSession(t, s, paperInstance).Session
	send(http.MethodPost, id+"/delta", `{"deltas":[{"op":"add","props":["team:chelsea"]}]}`, http.StatusOK)
	send(http.MethodGet, id+"/solution", "", http.StatusOK)
	send(http.MethodDelete, id, "", http.StatusNoContent)
	check("after solve, load, delta, solution, delete", 7, 2)
}

func TestDrainAnswers503WithRetryAfter(t *testing.T) {
	s := testServer(t, nil)
	s.draining.Store(true)
	for _, path := range []string{"/solve", "/load", "/healthz", "/stats"} {
		method := http.MethodGet
		if path == "/solve" || path == "/load" {
			method = http.MethodPost
		}
		rec := doJSON(t, s, method, path, paperInstance, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s during drain: status %d, want 503", path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s during drain: no Retry-After header", path)
		}
	}
}

// TestRejectedDeltaLeavesSessionAlone: a delta batch the session rejects
// changes nothing, not even the session's property universe, whatever
// names it carries.
func TestRejectedDeltaLeavesSessionAlone(t *testing.T) {
	s := testServer(t, nil)
	load := createSession(t, s, `{"queries": [["a", "b"]], "default_cost": 3, "costs": {"a": 1, "b": 1}}`)
	engine := s.sessions.get(load.Session).engine
	size, stats := engine.Universe().Size(), engine.Stats()
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"remove of unknown names", `{"deltas":[{"op":"remove","props":["ghost1","ghost2"]}]}`, http.StatusUnprocessableEntity},
		{"add, then remove twice", `{"deltas":[{"op":"add","props":["new1"]},{"op":"rm","props":["new1"]},{"op":"rm","props":["new1"]}]}`, http.StatusUnprocessableEntity},
		{"negative cost", `{"deltas":[{"op":"update-cost","props":["new2"],"cost":-1}]}`, http.StatusUnprocessableEntity},
		{"empty name", `{"deltas":[{"op":"add","props":["new3",""]}]}`, http.StatusUnprocessableEntity},
		{"no properties", `{"deltas":[{"op":"add","props":["new4"]},{"op":"add","props":[]}]}`, http.StatusUnprocessableEntity},
		{"unknown op", `{"deltas":[{"op":"add","props":["new5"]},{"op":"merge","props":["new6"]}]}`, http.StatusBadRequest},
		{"unknown field", `{"deltas":[{"op":"add","props":["new7"],"weight":2}]}`, http.StatusBadRequest},
	} {
		rec := doJSON(t, s, http.MethodPost, "/session/"+load.Session+"/delta", tc.body, nil)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.code, rec.Body)
		}
		if got := engine.Universe().Size(); got != size {
			t.Errorf("%s: universe grew from %d to %d names", tc.name, size, got)
		}
		if got := engine.Stats(); got != stats {
			t.Errorf("%s: stats changed from %+v to %+v", tc.name, stats, got)
		}
	}
}
