package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestWrongCostIsAFailure(t *testing.T) {
	var tl tally
	tl.op(1.5, nil)
	tl.check(checkCost("solve", 12, 11))
	tl.op(2.5, nil)
	tl.check(checkCost("solve", 11, 11))
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", tl.attempted, tl.failed)
	}
	if got := tl.errorRate(); got != 0.5 {
		t.Errorf("error rate %v, want 0.5", got)
	}
	if len(tl.notes) != 1 {
		t.Errorf("notes %q, want one failure description", tl.notes)
	}
}

func TestFailedOpMissesEveryLatencyLimit(t *testing.T) {
	var tl tally
	tl.op(1, nil)
	tl.op(1, errors.New("refused"))
	if tl.failed != 1 || len(tl.lat) != 2 {
		t.Fatalf("failed %d samples %d, want 1 and 2", tl.failed, len(tl.lat))
	}
	if p := percentile(sortedCopy(tl.lat), 1); p < 1e300 {
		t.Errorf("failed op's latency %v, want +Inf", p)
	}
}

// stubServer answers every request with the given status and body.
func stubServer(t *testing.T, status int, body string) *server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return &server{url: ts.URL}
}

func TestSolveRequestChecks(t *testing.T) {
	for _, c := range []struct {
		name   string
		status int
		body   string
		failed int64
	}{
		{"matching cost", http.StatusOK, `{"cost": 11, "seconds": 0.001}`, 0},
		{"wrong cost", http.StatusOK, `{"cost": 12, "seconds": 0.001}`, 1},
		{"non-2xx", http.StatusServiceUnavailable, `{"error": "draining"}`, 1},
		{"bad JSON", http.StatusOK, `{"cost":`, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := &serveSolve{
				pool: [][]byte{[]byte(`{}`)},
				want: []float64{11},
				sv:   stubServer(t, c.status, c.body),
				cl:   newClient(1),
			}
			defer w.cl.close()
			var tl tally
			w.request(0, &tl)
			if tl.attempted != 1 || tl.failed != c.failed {
				t.Errorf("attempted %d failed %d (%q), want 1 and %d", tl.attempted, tl.failed, tl.notes, c.failed)
			}
		})
	}
}

func TestSessionBatchNon2xxIsAFailure(t *testing.T) {
	w := &serveSession{
		batches: [][][]byte{{[]byte(`{"deltas":[]}`)}},
		ids:     []string{"s1"},
		svs:     []*server{stubServer(t, http.StatusNotFound, `{"error": "unknown session"}`)},
		cl:      newClient(1),
	}
	defer w.cl.close()
	var tl tally
	_, err := w.batch(0, 0, &tl)
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusNotFound {
		t.Fatalf("err = %v, want an HTTP 404 error", err)
	}
	if tl.attempted != 1 || tl.failed != 1 {
		t.Errorf("attempted %d failed %d, want 1 and 1", tl.attempted, tl.failed)
	}
}
