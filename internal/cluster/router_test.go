package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/obs"
)

// TestRouterBodyReadErrors: a body that exceeds MaxBody is answered 413 and
// any other body read failure 400, on every route that reads a body. The
// body is read before anything is forwarded, so no shard needs to run.
func TestRouterBodyReadErrors(t *testing.T) {
	rt, err := NewRouter(RouterConfig{Shards: []string{"127.0.0.1:1"}, MaxBody: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/solve", "/load", "/session/c0-s1/delta"} {
		for _, tc := range []struct {
			name string
			body io.Reader
			want int
		}{
			{"too large", strings.NewReader(strings.Repeat("x", 17)), http.StatusRequestEntityTooLarge},
			{"read error", iotest.ErrReader(errors.New("connection reset")), http.StatusBadRequest},
		} {
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, tc.body))
			if rec.Code != tc.want {
				t.Errorf("POST %s, %s: HTTP %d, want %d: %s", path, tc.name, rec.Code, tc.want, rec.Body)
			}
		}
	}
}

// TestRouterCancelledRequest: a request whose client has gone away ends
// its attempts and is answered 499 on every forwarding route.
func TestRouterCancelledRequest(t *testing.T) {
	rt, err := NewRouter(RouterConfig{Shards: []string{"127.0.0.1:1", "127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/solve"},
		{http.MethodPost, "/load"},
		{http.MethodGet, "/session/c0-s1/solution"},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(paperInstance)).WithContext(ctx)
		rt.ServeHTTP(rec, req)
		if rec.Code != statusClientClosedRequest {
			t.Errorf("%s %s with a cancelled context: HTTP %d, want 499: %s", tc.method, tc.path, rec.Code, rec.Body)
		}
	}
}

// loadSession creates a session through the router and returns its routed
// ID and the index of the shard it is pinned to.
func loadSession(t *testing.T, h *Harness) (string, int) {
	t.Helper()
	resp, raw := doReq(t, http.MethodPost, h.RouterURL()+"/load", paperInstance, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/load: HTTP %d: %s", resp.StatusCode, raw)
	}
	var load struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(raw, &load); err != nil {
		t.Fatal(err)
	}
	shard, _, err := splitRouted(load.Session)
	if err != nil {
		t.Fatal(err)
	}
	return load.Session, shard
}

// TestSessionDrainedShardNamesStatus: a delta for a session whose shard is
// draining is answered 503 with the reload hint, and the error names the
// status the shard answered.
func TestSessionDrainedShardNamesStatus(t *testing.T) {
	h := startTestHarness(t, HarnessConfig{Shards: 2})
	id, shard := loadSession(t, h)
	h.ShardServer(shard).StartDrain()

	resp, raw := doReq(t, http.MethodPost, h.RouterURL()+"/session/"+id+"/delta",
		`{"deltas":[{"op":"add","props":["color:white"]}]}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delta on draining shard: HTTP %d, want 503: %s", resp.StatusCode, raw)
	}
	var ans routerError
	if err := json.Unmarshal(raw, &ans); err != nil {
		t.Fatal(err)
	}
	if !ans.Reload || !strings.Contains(ans.Error, "HTTP 503") {
		t.Fatalf("want a reload hint naming HTTP 503, got %s", raw)
	}
}

// TestFreshRouterLoadFailsOver: a router that has just started moves a
// /load off a shard that dies while the request is in flight, because its
// retry budget starts full. The dying shard accepts the request and drops
// the connection; the replica places the session.
func TestFreshRouterLoadFailsOver(t *testing.T) {
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer dying.Close()
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"session":"s1"}`)
	}))
	defer replica.Close()

	reg := obs.NewRegistry()
	rt, err := NewRouter(RouterConfig{Shards: []string{dying.URL, replica.URL}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	key := ""
	for i := 0; key == ""; i++ {
		if k := "fresh-" + strconv.Itoa(i); rt.Ring().Addr(rt.Ring().Sequence(k)[0]) == dying.URL {
			key = k
		}
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/load", strings.NewReader(paperInstance))
	req.Header.Set("X-Session-Key", key)
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("first /load with its primary dying mid-request: HTTP %d: %s", rec.Code, rec.Body)
	}
	if got := reg.Counter(fmt.Sprintf(`mc3_cluster_retries_total{shard=%q}`, replica.URL)).Value(); got != 1 {
		t.Errorf("replica retries = %d, want 1", got)
	}
}

// TestRouterRetryPaths pins each path through the router's retry loop. A
// /solve or /load whose primary shard is dead is retried once on the
// replica; a session delta is tried once on its pinned shard; a session
// solution GET is tried three times there. Probes are effectively
// off so breakers stay closed.
func TestRouterRetryPaths(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, h *Harness, counter func(string, int) int64)
	}{
		{"solve fails over", func(t *testing.T, h *Harness, counter func(string, int) int64) {
			key := "solve:" + strconv.FormatUint(KeyHash(paperInstance), 16)
			seq := h.Router().Ring().Sequence(key)
			h.KillShard(seq[0])
			resp, raw := doReq(t, http.MethodPost, h.RouterURL()+"/solve", paperInstance, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/solve with dead primary: HTTP %d: %s", resp.StatusCode, raw)
			}
			if got := counter("retries", seq[1]); got != 1 {
				t.Errorf("replica retries = %d, want 1", got)
			}
		}},
		{"load fails over", func(t *testing.T, h *Harness, counter func(string, int) int64) {
			seq := h.Router().Ring().Sequence("retry-session")
			h.KillShard(seq[0])
			resp, raw := doReq(t, http.MethodPost, h.RouterURL()+"/load", paperInstance,
				map[string]string{"X-Session-Key": "retry-session"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/load with dead primary: HTTP %d: %s", resp.StatusCode, raw)
			}
			if got := counter("retries", seq[1]); got != 1 {
				t.Errorf("replica retries = %d, want 1", got)
			}
		}},
		{"session retries only GET", func(t *testing.T, h *Harness, counter func(string, int) int64) {
			id, shard := loadSession(t, h)
			h.ShardServer(shard).StartDrain()
			for _, step := range []struct {
				method, path, body string
				tries, retries     int64
			}{
				{http.MethodPost, "/delta", `{"deltas":[{"op":"add","props":["color:white"]}]}`, 1, 0},
				{http.MethodGet, "/solution", "", 3, 2},
			} {
				tries, retries := counter("requests", shard), counter("retries", shard)
				resp, raw := doReq(t, step.method, h.RouterURL()+"/session/"+id+step.path, step.body, nil)
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("%s %s on draining shard: HTTP %d, want 503: %s", step.method, step.path, resp.StatusCode, raw)
				}
				if got := counter("requests", shard) - tries; got != step.tries {
					t.Errorf("%s %s: tried %d times, want %d", step.method, step.path, got, step.tries)
				}
				if got := counter("retries", shard) - retries; got != step.retries {
					t.Errorf("%s %s: retries rose by %d, want %d", step.method, step.path, got, step.retries)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			h := startTestHarness(t, HarnessConfig{
				Shards: 2,
				Router: RouterConfig{ProbeInterval: time.Hour, Registry: reg},
			})
			counter := func(name string, shard int) int64 {
				return reg.Counter(fmt.Sprintf(`mc3_cluster_%s_total{shard=%q}`, name, h.Router().Ring().Addr(shard))).Value()
			}
			tc.run(t, h, counter)
		})
	}
}
