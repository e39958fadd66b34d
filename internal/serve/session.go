package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
)

// The stateful session API, backed by internal/incr: a session owns a live
// load and re-solves only the components each delta batch touches.
//
//	POST   /load                   — body: instance JSON; creates a session
//	                                 (optional ?algo=auto|general|ktwo).
//	POST   /session/{id}/delta     — body: {"deltas":[{"op","props","cost"}]};
//	                                 applies the batch, answers the updated
//	                                 cost and the changed classifiers.
//	GET    /session/{id}/solution  — current full solution.
//	DELETE /session/{id}            — drops the session.
//
// Sessions share the process-wide component cache with /solve, so work done
// for one session (or one stateless solve) amortizes across all of them.

// session is one live incremental load.
type session struct {
	id      string
	algo    string
	engine  *incr.Engine
	created time.Time
}

// sessions is the server's session table.
type sessions struct {
	mu  sync.Mutex
	m   map[string]*session
	seq int64
	max int
}

func (ss *sessions) get(id string) *session {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.m[id]
}

func (ss *sessions) drop(id string) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, ok := ss.m[id]; !ok {
		return false
	}
	delete(ss.m, id)
	return true
}

// add registers a session, enforcing the -max-sessions bound.
func (ss *sessions) add(algo string, e *incr.Engine) (*session, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if len(ss.m) >= ss.max {
		return nil, fmt.Errorf("session limit reached (%d); delete one or raise -max-sessions", ss.max)
	}
	ss.seq++
	s := &session{id: fmt.Sprintf("s%d", ss.seq), algo: algo, engine: e, created: time.Now()}
	ss.m[s.id] = s
	return s, nil
}

// snapshot aggregates session counters for /stats.
func (ss *sessions) snapshot() sessionsStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := sessionsStats{Count: len(ss.m)}
	for _, s := range ss.m {
		st := s.engine.Stats()
		out.Applies += st.Applies
		out.Deltas += st.Deltas
		out.Queries += st.Queries
		out.Components += st.Components
	}
	return out
}

// sessionsStats is the "sessions" block of /stats.
type sessionsStats struct {
	Count      int   `json:"count"`
	Applies    int64 `json:"applies"`
	Deltas     int64 `json:"deltas"`
	Queries    int   `json:"queries"`
	Components int   `json:"components"`
}

// sessionResponse answers /load and /delta: the apply summary plus the
// session handle.
type sessionResponse struct {
	Session   string `json:"session"`
	Algorithm string `json:"algorithm"`
	incr.Result
}

// wireDelta is the JSON form of one delta.
type wireDelta struct {
	Op    string   `json:"op"`
	Props []string `json:"props"`
	Cost  float64  `json:"cost,omitempty"`
}

// deltaRequest is the /delta body.
type deltaRequest struct {
	Deltas []wireDelta `json:"deltas"`
}

func (d wireDelta) decode() (incr.Delta, error) {
	op, err := incr.ParseOp(d.Op)
	if err != nil {
		return incr.Delta{}, err
	}
	return incr.Delta{Op: op, Props: d.Props, Cost: d.Cost}, nil
}

// sessionAlgo resolves the effective algorithm for a new session: the
// ?algo= override, else the server's -algo when the incremental engine
// supports it, else auto.
func (s *Server) sessionAlgo(r *http.Request) (string, error) {
	if a := r.URL.Query().Get("algo"); a != "" {
		switch a {
		case incr.AlgoAuto, incr.AlgoGeneral, incr.AlgoKTwo:
			return a, nil
		}
		return "", fmt.Errorf("unsupported session algo %q (want %s, %s, or %s)",
			a, incr.AlgoAuto, incr.AlgoGeneral, incr.AlgoKTwo)
	}
	switch s.cfg.Algo {
	case incr.AlgoGeneral, incr.AlgoKTwo:
		return s.cfg.Algo, nil
	}
	return incr.AlgoAuto, nil
}

// handleLoad answers POST /load: parse an instance, install it as a fresh
// incremental session, and solve it.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	algo, err := s.sessionAlgo(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	file, err := s.readInstance(w, r)
	if err != nil {
		s.failParse(w, "instance", err)
		return
	}
	if s.cfg.MaxLoadQueries > 0 && len(file.Queries) > s.cfg.MaxLoadQueries {
		s.fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf(
			"load of %d queries exceeds the %d-query session limit; solve oversized loads offline with `mc3solve -stream` (see docs/STREAMING.md)",
			len(file.Queries), s.cfg.MaxLoadQueries))
		return
	}

	u := core.NewUniverse()
	opts := s.opts
	opts.Validate = s.cfg.Validate
	engine, err := incr.New(incr.Config{
		Costs:    file.CostModelFor(u),
		Universe: u,
		Algo:     algo,
		Options:  opts,
		Cache:    s.cache,
		NoCache:  s.cache == nil,
		Tracer:   s.opts.Tracer,
		Metrics:  s.registry,
	})
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	deltas := make([]incr.Delta, len(file.Queries))
	for i, q := range file.Queries {
		deltas[i] = incr.Add(q...)
	}
	sess, err := s.sessions.add(algo, engine)
	if err != nil {
		// Backpressure, not a broken request: like the drain-path 503, the
		// 429 carries Retry-After so clients and routers know to back off
		// and try again instead of failing the load outright.
		s.failRetry(w, http.StatusTooManyRequests, 1, err)
		return
	}
	res, err := s.applySession(r, "load", sess, deltas)
	if err != nil {
		s.sessions.drop(sess.id) // a load that cannot solve is not a session
		s.failApply(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionResponse{Session: sess.id, Algorithm: algo, Result: *res})
}

// handleDelta answers POST /session/{id}/delta.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	sess := s.sessions.get(r.PathValue("id"))
	if sess == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	dec.DisallowUnknownFields()
	var req deltaRequest
	if err := dec.Decode(&req); err != nil {
		s.failParse(w, "deltas", err)
		return
	}
	deltas := make([]incr.Delta, len(req.Deltas))
	for i, wd := range req.Deltas {
		d, err := wd.decode()
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("delta %d: %w", i, err))
			return
		}
		deltas[i] = d
	}
	res, err := s.applySession(r, "delta", sess, deltas)
	if err != nil {
		s.failApply(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionResponse{Session: sess.id, Algorithm: sess.algo, Result: *res})
}

// handleSolution answers GET /session/{id}/solution.
func (s *Server) handleSolution(w http.ResponseWriter, r *http.Request) {
	sess := s.sessions.get(r.PathValue("id"))
	if sess == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	sol, err := sess.engine.Solution()
	if err != nil {
		s.fail(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Session string `json:"session"`
		*incr.Solution
	}{sess.id, sol})
}

// handleSessionDelete answers DELETE /session/{id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.drop(r.PathValue("id")) {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// applySession runs one delta batch under the request's deadline, observing
// the solve latency under the given endpoint label ("load" or "delta").
func (s *Server) applySession(r *http.Request, endpoint string, sess *session, deltas []incr.Delta) (*incr.Result, error) {
	ctx := r.Context()
	if s.cfg.ReqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ReqTimeout)
		defer cancel()
	}
	res, err := sess.engine.Apply(ctx, deltas)
	if err == nil {
		s.observeSolve(endpoint, res.Seconds)
	}
	return res, err
}

// failApply maps an Apply error to the same status vocabulary as /solve:
// deadline 504, client gone 499, validation/infeasibility 422.
func (s *Server) failApply(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout, fmt.Errorf("apply exceeded %v", s.cfg.ReqTimeout))
	case errors.Is(err, context.Canceled):
		s.fail(w, statusClientClosedRequest, errors.New("client closed request"))
	default:
		s.fail(w, http.StatusUnprocessableEntity, err)
	}
}
