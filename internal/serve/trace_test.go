package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// Tests for the request-scoped observability layer: request-ID propagation,
// the flight recorder's debug endpoints, tail-based slow/error capture, and
// RED metrics.

// get answers a GET against the handler.
func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestRequestIDPropagation(t *testing.T) {
	s := testServer(t, nil)

	// A client-supplied X-Request-ID is echoed verbatim.
	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(paperInstance))
	req.Header.Set("X-Request-ID", "client-chose-this")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve: %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Request-ID"); got != "client-chose-this" {
		t.Errorf("X-Request-ID = %q, want the client's ID echoed", got)
	}

	// Without one, the server generates distinct non-empty IDs.
	var ids []string
	for i := 0; i < 2; i++ {
		rec, _ := postSolve(t, s, paperInstance)
		id := rec.Header().Get("X-Request-ID")
		if id == "" {
			t.Fatalf("request %d: no generated X-Request-ID", i)
		}
		ids = append(ids, id)
	}
	if ids[0] == ids[1] {
		t.Errorf("generated IDs collide: %q", ids[0])
	}

	// Errors carry an ID too: the flight recorder must be able to key the
	// failed request's trace.
	rec, _ = postSolve(t, s, `{"queries": [`)
	if rec.Code != http.StatusBadRequest || rec.Header().Get("X-Request-ID") == "" {
		t.Errorf("error response lacks X-Request-ID (status %d)", rec.Code)
	}
}

// debugRequestsDoc mirrors the /debug/requests response.
type debugRequestsDoc struct {
	Stats    obs.FlightStats `json:"stats"`
	Requests []struct {
		Root      uint64 `json:"root"`
		Name      string `json:"name"`
		RequestID string `json:"request_id"`
		Spans     int    `json:"spans"`
	} `json:"requests"`
}

// debugTraceDoc mirrors the /debug/trace/{id} response.
type debugTraceDoc struct {
	Root      uint64 `json:"root"`
	RequestID string `json:"request_id"`
	Name      string `json:"name"`
	Nanos     int64  `json:"ns"`
	Err       string `json:"err"`
	Spans     []struct {
		Name   string         `json:"name"`
		ID     uint64         `json:"id"`
		Parent uint64         `json:"parent"`
		Attrs  map[string]any `json:"attrs"`
	} `json:"spans"`
}

func TestDebugEndpoints(t *testing.T) {
	s := testServer(t, nil)

	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(paperInstance))
	req.Header.Set("X-Request-ID", "trace-me")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve: %d: %s", rec.Code, rec.Body)
	}

	// /debug/requests lists the retained request.
	rec = get(t, s, "/debug/requests")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/requests: %d: %s", rec.Code, rec.Body)
	}
	var doc debugRequestsDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/requests JSON: %v\n%s", err, rec.Body)
	}
	if doc.Stats.Recorded == 0 || len(doc.Requests) == 0 || doc.Stats.RetainedBytes <= 0 {
		t.Fatalf("flight recorder retained nothing: %+v", doc.Stats)
	}
	found := false
	for _, r := range doc.Requests {
		if r.RequestID == "trace-me" {
			found = true
			if r.Name != "http.request" {
				t.Errorf("summary root span = %q, want http.request", r.Name)
			}
			if r.Spans < 3 {
				t.Errorf("summary spans = %d, want the request+solve+component tree", r.Spans)
			}
		}
	}
	if !found {
		t.Fatalf("request trace-me missing from /debug/requests: %s", rec.Body)
	}

	// /debug/trace/{request-id} serves the complete span tree.
	rec = get(t, s, "/debug/trace/trace-me")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace/trace-me: %d: %s", rec.Code, rec.Body)
	}
	var tr debugTraceDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, rec.Body)
	}
	if tr.RequestID != "trace-me" || tr.Name != "http.request" {
		t.Errorf("trace root = %q/%q, want http.request/trace-me", tr.Name, tr.RequestID)
	}
	names := map[string]int{}
	byID := map[uint64]string{}
	for _, sp := range tr.Spans {
		names[sp.Name]++
		byID[sp.ID] = sp.Name
	}
	for _, want := range []string{"http.request", "textio.decode", "core.build", "solve", "component"} {
		if names[want] == 0 {
			t.Errorf("trace lacks a %q span: have %v", want, names)
		}
	}
	// Every non-root span's parent is present: the tree is complete.
	for _, sp := range tr.Spans {
		if sp.ID == tr.Root {
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Errorf("span %q (id %d) has dangling parent %d", sp.Name, sp.ID, sp.Parent)
		}
	}

	// Unknown IDs are a JSON 404, not a 500.
	rec = get(t, s, "/debug/trace/never-recorded")
	if rec.Code != http.StatusNotFound {
		t.Errorf("/debug/trace unknown: %d, want 404", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Errorf("404 body not JSON {error}: %s", rec.Body)
	}

	// Inspecting the server must not count as request errors.
	var st statsResponse
	doJSON(t, s, http.MethodGet, "/stats", "", &st)
	if st.Errors != 0 {
		t.Errorf("debug endpoints inflated error count: %+v", st)
	}
}

func TestDebugEndpointsDisabled(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Flight = 0 })
	postSolve(t, s, paperInstance)
	for _, path := range []string{"/debug/requests", "/debug/trace/anything"} {
		rec := get(t, s, path)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s with -flight 0: %d, want 404", path, rec.Code)
		}
	}
	if body := get(t, s, "/metrics").Body.String(); strings.Contains(body, "mc3_flight_retained_bytes") {
		t.Errorf("/metrics lists the flight recorder's gauge with -flight 0")
	}
}

// slowRec mirrors one slow-query JSONL record.
type slowRec struct {
	Kind      string `json:"kind"`
	RequestID string `json:"request_id"`
	Root      uint64 `json:"root"`
	Name      string `json:"name"`
	Nanos     int64  `json:"ns"`
	Err       string `json:"err"`
	Spans     []struct {
		Name string `json:"name"`
	} `json:"spans"`
}

func readSlowLog(t *testing.T, buf *bytes.Buffer) []slowRec {
	t.Helper()
	var out []slowRec
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var r slowRec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("slow-log line not JSON: %v\n%s", err, sc.Text())
		}
		out = append(out, r)
	}
	return out
}

func TestSlowQueryCapture(t *testing.T) {
	// Threshold 1ns: every completed request counts as slow.
	var buf bytes.Buffer
	s := testServer(t, func(c *Config) {
		c.SlowW = &buf
		c.SlowThreshold = time.Nanosecond
	})
	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(paperInstance))
	req.Header.Set("X-Request-ID", "slowpoke")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve: %d: %s", rec.Code, rec.Body)
	}

	recs := readSlowLog(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("slow log has %d records, want 1:\n%s", len(recs), buf.String())
	}
	r := recs[0]
	if r.Kind != "slow" || r.RequestID != "slowpoke" || r.Name != "http.request" {
		t.Errorf("slow record = %+v, want kind=slow request_id=slowpoke", r)
	}
	spanNames := map[string]bool{}
	for _, sp := range r.Spans {
		spanNames[sp.Name] = true
	}
	for _, want := range []string{"http.request", "textio.decode", "core.build", "solve", "component"} {
		if !spanNames[want] {
			t.Errorf("slow record lacks a %q span", want)
		}
	}
}

func TestErrorCapture(t *testing.T) {
	// Threshold far away: only the error path may trigger capture.
	var buf bytes.Buffer
	s := testServer(t, func(c *Config) {
		c.SlowW = &buf
		c.SlowThreshold = time.Hour
	})

	// A fast success is not captured.
	if rec, _ := postSolve(t, s, paperInstance); rec.Code != http.StatusOK {
		t.Fatalf("solve: %d", rec.Code)
	}
	if buf.Len() != 0 {
		t.Fatalf("fast success captured: %s", buf.String())
	}

	// An infeasible instance answers 422; the root span ends in error and the
	// whole tree lands in the slow log.
	req := httptest.NewRequest(http.MethodPost, "/solve",
		strings.NewReader(`{"queries": [["a", "b"]], "costs": {}}`))
	req.Header.Set("X-Request-ID", "doomed")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible solve: %d, want 422: %s", rec.Code, rec.Body)
	}

	recs := readSlowLog(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("slow log has %d records, want 1:\n%s", len(recs), buf.String())
	}
	r := recs[0]
	if r.Kind != "error" || r.RequestID != "doomed" {
		t.Errorf("error record = %+v, want kind=error request_id=doomed", r)
	}
	if !strings.Contains(r.Err, "422") {
		t.Errorf("error record err = %q, want the HTTP status", r.Err)
	}

	// The failed request's full trace is also retrievable by ID.
	trRec := get(t, s, "/debug/trace/doomed")
	if trRec.Code != http.StatusOK {
		t.Fatalf("/debug/trace/doomed: %d", trRec.Code)
	}
	var tr debugTraceDoc
	if err := json.Unmarshal(trRec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if tr.Err == "" {
		t.Errorf("retained error trace has no err: %s", trRec.Body)
	}
}

func TestMetricsREDAndLint(t *testing.T) {
	s := testServer(t, nil)

	// Exercise every instrumented endpoint, successes and failures alike.
	if rec, _ := postSolve(t, s, paperInstance); rec.Code != http.StatusOK {
		t.Fatalf("solve: %d", rec.Code)
	}
	if rec, _ := postSolve(t, s, `{"queries": [["a", "b"]], "costs": {}}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible: %d", rec.Code)
	}
	load := createSession(t, s, paperInstance)
	doJSON(t, s, http.MethodPost, "/session/"+load.Session+"/delta",
		`{"deltas":[{"op":"add","props":["team:chelsea"]}]}`, nil)
	doJSON(t, s, http.MethodGet, "/session/"+load.Session+"/solution", "", nil)
	doJSON(t, s, http.MethodDelete, "/session/"+load.Session, "", nil)
	doJSON(t, s, http.MethodGet, "/session/nope/solution", "", nil) // a 404

	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, series := range []string{
		`mc3serve_http_requests_total{endpoint="solve",status="2xx"}`,
		`mc3serve_http_requests_total{endpoint="solve",status="4xx"}`,
		`mc3serve_http_requests_total{endpoint="load",status="2xx"}`,
		`mc3serve_http_requests_total{endpoint="delta",status="2xx"}`,
		`mc3serve_http_errors_total{endpoint="solve"}`,
		`mc3serve_http_request_seconds_bucket{endpoint="solve",le=`,
		`mc3serve_solve_seconds_bucket{endpoint="solve",le=`,
		`mc3serve_solve_seconds_bucket{endpoint="load",le=`,
		`mc3serve_solve_seconds_bucket{endpoint="delta",le=`,
		`mc3serve_solve_seconds_count `, // the unlabeled aggregate family survives
		"# TYPE mc3_flight_retained_bytes gauge\nmc3_flight_retained_bytes ",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}

	// The whole exposition must be well-formed Prometheus text format.
	if err := obs.LintMetrics(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics exposition does not lint: %v\n%s", err, body)
	}

	// /stats surfaces latency quantiles, scheduler counters, and flight stats.
	var st statsResponse
	doJSON(t, s, http.MethodGet, "/stats", "", &st)
	if st.SolveLatency.Count < 3 { // solve + load + delta
		t.Errorf("solve latency count = %d, want >= 3", st.SolveLatency.Count)
	}
	if st.SolveLatency.P50 <= 0 || st.SolveLatency.P99 < st.SolveLatency.P50 {
		t.Errorf("implausible latency quantiles: %+v", st.SolveLatency)
	}
	if st.Flight.Recorded == 0 || st.Flight.RetainedBytes <= 0 {
		t.Errorf("flight stats empty in /stats: %+v", st.Flight)
	}
	if !strings.Contains(body, fmt.Sprintf("mc3_flight_retained_bytes %d\n", st.Flight.RetainedBytes)) {
		t.Errorf("/metrics gauge disagrees with /stats retained_bytes %d", st.Flight.RetainedBytes)
	}
}

// TestDebugEndpointsUnderLoad hammers the ring from writers while readers walk
// the debug endpoints — meaningful mainly under -race.
func TestDebugEndpointsUnderLoad(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Flight = 8 })
	const writers, perWriter = 4, 16

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				get(t, s, "/debug/requests")
				get(t, s, fmt.Sprintf("/debug/trace/w0-%d", i%perWriter))
				get(t, s, "/metrics")
				get(t, s, "/stats")
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(paperInstance))
				req.Header.Set("X-Request-ID", fmt.Sprintf("w%d-%d", w, i))
				s.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		// Writers finish first; then release the readers.
		wg.Wait()
		close(done)
	}()
	// Wait for the writer goroutines by polling flight stats.
	deadline := time.After(30 * time.Second)
	for {
		if s.flight.Stats().Recorded >= writers*perWriter {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("writers did not finish: %+v", s.flight.Stats())
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stop)
	<-done

	st := s.flight.Stats()
	if st.Recorded != writers*perWriter {
		t.Errorf("recorded %d traces, want %d", st.Recorded, writers*perWriter)
	}
	if st.Retained != 8 {
		t.Errorf("retained %d, want ring capacity 8", st.Retained)
	}
}
