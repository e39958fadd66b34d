package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/solver"
	"repro/internal/textio"
)

// The cluster replay client: drives a session bundle through a router over
// HTTP while mirroring every session in a local (shadow) incremental
// engine, and hard-differential-checks the cluster's reported cost against
// the shadow after every delta batch. Because the shadow engine's own
// differential property is tested against from-scratch solves (see
// internal/incr), cost agreement here proves the whole distributed path —
// routing, pinning, failover reloads — preserves exact solution cost.

// ReplayConfig configures ReplayBundle.
type ReplayConfig struct {
	// RouterURL is the cluster front door (required).
	RouterURL string
	// Algo is the session algorithm (?algo=...; empty for the server
	// default).
	Algo string
	// Window batches deltas within this many seconds of stream time
	// (default 1).
	Window float64
	// UniformCost prices classifiers with no cost-override delta
	// (default 1).
	UniformCost float64
	// Parallel is the shadow engines' per-batch component parallelism.
	Parallel int
	// Validate makes the shadow engines verify every solution.
	Validate bool
	// Concurrency bounds sessions replayed at once (default 4).
	Concurrency int
	// Log, when non-nil, receives progress notes (reloads in particular).
	Log io.Writer
	// OnBatch, when non-nil, is invoked after every applied batch, from the
	// session's replay goroutine — the failover hammer test uses it to kill
	// a shard mid-replay at a deterministic point.
	OnBatch func(BatchRecord)
}

// BatchRecord is one replayed batch's outcome.
type BatchRecord struct {
	Session    string  `json:"session"`
	Batch      int     `json:"batch"`
	Time       float64 `json:"time"` // stream time of the batch's first event
	Deltas     int     `json:"deltas"`
	Cost       float64 `json:"cost"`           // cluster-reported == shadow cost
	RouterSecs float64 `json:"router_seconds"` // HTTP round-trip through the router
	ShadowSecs float64 `json:"shadow_seconds"` // local shadow apply
	Reloaded   bool    `json:"reloaded"`       // batch delivered via a failover reload
	// RemoteSession is the routed session ID after the batch ("c<shard>-…",
	// so the owning shard is readable from the prefix).
	RemoteSession string `json:"remote_session"`
}

// ReplayResult aggregates a bundle replay.
type ReplayResult struct {
	Batches  []BatchRecord
	Sessions int
	Reloads  int // failover reloads performed across all sessions
}

// ReplayBundle replays every session of a bundle against the router,
// differential-checking each batch. Sessions run concurrently (they are
// independent by construction); batches within a session are sequential.
// Any cost disagreement is an error.
func ReplayBundle(ctx context.Context, cfg ReplayConfig, sessions []incr.SessionStream) (*ReplayResult, error) {
	if cfg.RouterURL == "" {
		return nil, fmt.Errorf("cluster: replay needs a router URL")
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.UniformCost <= 0 {
		cfg.UniformCost = 1
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("cluster: empty session bundle")
	}

	var (
		mu       sync.Mutex
		records  = make(map[string][]BatchRecord, len(sessions))
		reloads  int
		firstErr error
	)
	sem := make(chan struct{}, cfg.Concurrency)
	var wg sync.WaitGroup
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, ss := range sessions {
		wg.Add(1)
		go func(ss incr.SessionStream) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-rctx.Done():
				return
			}
			recs, nReloads, err := replaySession(rctx, cfg, ss)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("session %q: %w", ss.Name, err)
					cancel()
				}
				return
			}
			records[ss.Name] = recs
			reloads += nReloads
		}(ss)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	res := &ReplayResult{Sessions: len(sessions), Reloads: reloads}
	names := make([]string, 0, len(records))
	for n := range records {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.Batches = append(res.Batches, records[n]...)
	}
	return res, nil
}

// sessionMirror is the replay-side shadow of one cluster session: the local
// engine plus the accumulated cost overrides, from which the live load can
// be materialized into a /load body at any batch boundary.
type sessionMirror struct {
	cfg       ReplayConfig
	name      string
	engine    *incr.Engine
	overrides map[string]float64 // textio.CostKey → latest override
	remoteID  string             // routed session ID, "" before first load
}

func newSessionMirror(cfg ReplayConfig, name string) (*sessionMirror, error) {
	engine, err := newMirrorEngine(cfg, core.UniformCost(cfg.UniformCost), core.NewUniverse())
	if err != nil {
		return nil, err
	}
	return &sessionMirror{
		cfg:       cfg,
		name:      name,
		engine:    engine,
		overrides: make(map[string]float64),
	}, nil
}

// newMirrorEngine builds a shadow engine with the mirror's solver options.
func newMirrorEngine(cfg ReplayConfig, costs core.CostModel, u *core.Universe) (*incr.Engine, error) {
	opts := solver.DefaultOptions()
	opts.Parallelism = cfg.Parallel
	opts.Validate = cfg.Validate
	algo := cfg.Algo
	if algo == "" {
		algo = incr.AlgoAuto
	}
	return incr.New(incr.Config{
		Costs:    costs,
		Universe: u,
		Algo:     algo,
		Options:  opts,
	})
}

// apply runs one batch on the shadow engine and tracks cost overrides.
func (m *sessionMirror) apply(ctx context.Context, batch []incr.Delta) (*incr.Result, error) {
	res, err := m.engine.Apply(ctx, batch)
	if err != nil {
		return nil, fmt.Errorf("shadow apply: %w", err)
	}
	for _, d := range batch {
		if d.Op == incr.OpUpdateCost {
			m.overrides[textio.CostKey(d.Props)] = d.Cost
		}
	}
	return res, nil
}

// materialize captures the shadow's live state as a /load instance file:
// the exact load a from-scratch session would install, so a failover reload
// reconstructs the session with nothing lost and nothing double-applied.
func (m *sessionMirror) materialize() *textio.File {
	def := m.cfg.UniformCost
	file := &textio.File{
		// The multiset, not the distinct list: /load applies one add per
		// listed query, so repeating a query rebuilds its multiplicity —
		// without it a later removal of a twice-added query would remove
		// it outright on the cluster side only.
		Queries:     m.engine.QueryMultiset(),
		DefaultCost: &def,
	}
	if len(m.overrides) > 0 {
		file.Costs = make(map[string]float64, len(m.overrides))
		for k, v := range m.overrides {
			file.Costs[k] = v
		}
	}
	return file
}

// rebuild replaces the shadow engine with one constructed from a
// materialized file exactly the way the serve /load handler constructs its
// session engine: a fresh universe, the file's cost table, and the query
// multiset applied as one Add batch. The general algorithm is a greedy
// approximation, and a greedy solve's tie-breaking — hence its cost — can
// depend on how the instance was presented (property interning order in
// particular). Incremental exactness against from-scratch solves holds per
// engine regardless (internal/incr's differential tests); but for the
// *cluster* differential to be exact the shadow must present the instance
// to itself precisely as the shard will see it, so on every (re)load both
// sides rebuild from the same bytes and then stay in lockstep on the same
// delta batches.
func (m *sessionMirror) rebuild(ctx context.Context, file *textio.File) (float64, error) {
	u := core.NewUniverse()
	engine, err := newMirrorEngine(m.cfg, file.CostModelFor(u), u)
	if err != nil {
		return 0, err
	}
	adds := make([]incr.Delta, len(file.Queries))
	for i, q := range file.Queries {
		adds[i] = incr.Add(q...)
	}
	res, err := engine.Apply(ctx, adds)
	if err != nil {
		return 0, fmt.Errorf("shadow rebuild: %w", err)
	}
	m.engine = engine
	return res.Cost, nil
}

// wireDelta mirrors the serve /delta JSON vocabulary.
type wireDelta struct {
	Op    string   `json:"op"`
	Props []string `json:"props"`
	Cost  float64  `json:"cost,omitempty"`
}

// sessionAnswer is the subset of the serve session response the replay
// reads.
type sessionAnswer struct {
	Session string  `json:"session"`
	Cost    float64 `json:"cost"`
	Error   string  `json:"error"`
	Reload  bool    `json:"reload"`
}

// post sends one JSON request and decodes the session answer.
func (m *sessionMirror) post(ctx context.Context, method, path string, body []byte) (int, *sessionAnswer, error) {
	req, err := http.NewRequestWithContext(ctx, method, m.cfg.RouterURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Session-Key", m.name)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	var ans sessionAnswer
	if err := json.Unmarshal(raw, &ans); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("HTTP %d: undecodable answer %.200q", resp.StatusCode, raw)
	}
	return resp.StatusCode, &ans, nil
}

// load (re-)creates the cluster session from the shadow's materialized
// state, rebuilds the shadow from the same state (see rebuild), and checks
// that both sides report the same cost. It returns that agreed cost.
func (m *sessionMirror) load(ctx context.Context) (cost, secs float64, err error) {
	file := m.materialize()
	want, err := m.rebuild(ctx, file)
	if err != nil {
		return 0, 0, err
	}
	body, err := json.Marshal(file)
	if err != nil {
		return 0, 0, err
	}
	path := "/load"
	if m.cfg.Algo != "" {
		path += "?algo=" + m.cfg.Algo
	}
	start := time.Now()
	status, ans, err := m.post(ctx, http.MethodPost, path, body)
	secs = time.Since(start).Seconds()
	if err != nil {
		return 0, secs, err
	}
	if status != http.StatusOK {
		return 0, secs, fmt.Errorf("load: HTTP %d: %s", status, ans.Error)
	}
	if ans.Session == "" {
		return 0, secs, fmt.Errorf("load: no session in answer")
	}
	m.remoteID = ans.Session
	if ans.Cost != want {
		return 0, secs, fmt.Errorf("differential mismatch on load: cluster cost %v, shadow cost %v", ans.Cost, want)
	}
	return want, secs, nil
}

// replaySession drives one session's batches through the cluster with the
// shadow differential, reloading on failover 503s.
func replaySession(ctx context.Context, cfg ReplayConfig, ss incr.SessionStream) ([]BatchRecord, int, error) {
	if len(ss.Deltas) == 0 {
		return nil, 0, fmt.Errorf("no deltas")
	}
	m, err := newSessionMirror(cfg, ss.Name)
	if err != nil {
		return nil, 0, err
	}
	var (
		recs    []BatchRecord
		reloads int
	)
	deltas := ss.Deltas
	for lo := 0; lo < len(deltas); {
		hi := lo + 1
		for hi < len(deltas) && deltas[hi].Time < deltas[lo].Time+cfg.Window {
			hi++
		}
		batch := deltas[lo:hi]
		shadowStart := time.Now()
		res, err := m.apply(ctx, batch)
		if err != nil {
			return nil, reloads, fmt.Errorf("batch at t=%gs: %w", deltas[lo].Time, err)
		}
		shadowSecs := time.Since(shadowStart).Seconds()

		rec := BatchRecord{
			Session: ss.Name, Batch: len(recs), Time: deltas[lo].Time,
			Deltas: res.Deltas, Cost: res.Cost, ShadowSecs: shadowSecs,
		}
		if m.remoteID == "" {
			// First batch: create the cluster session from the materialized
			// state (which already includes this batch). load rebuilds the
			// shadow, so record its (cluster-confirmed) cost, which may
			// differ from the stream-built apply's by a greedy tie-break.
			rec.Cost, rec.RouterSecs, err = m.load(ctx)
			if err != nil {
				return nil, reloads, fmt.Errorf("batch at t=%gs: %w", deltas[lo].Time, err)
			}
		} else {
			wire := make([]wireDelta, len(batch))
			for i, d := range batch {
				wire[i] = wireDelta{Op: d.Op.String(), Props: d.Props, Cost: d.Cost}
			}
			body, err := json.Marshal(struct {
				Deltas []wireDelta `json:"deltas"`
			}{wire})
			if err != nil {
				return nil, reloads, err
			}
			start := time.Now()
			status, ans, err := m.post(ctx, http.MethodPost, "/session/"+m.remoteID+"/delta", body)
			rec.RouterSecs = time.Since(start).Seconds()
			switch {
			case err == nil && status == http.StatusOK:
				if ans.Cost != res.Cost {
					return nil, reloads, fmt.Errorf("differential mismatch at t=%gs: cluster cost %v, shadow cost %v",
						deltas[lo].Time, ans.Cost, res.Cost)
				}
			case err == nil && status == http.StatusServiceUnavailable && ans.Reload,
				err == nil && status == http.StatusNotFound,
				err != nil && ctx.Err() == nil:
				// The pinned shard is gone (503+reload), forgot us (404
				// after a router restart), or the connection died mid-send.
				// In every case the shadow state is the truth: re-POST the
				// materialized load — the failed batch rides along, applied
				// exactly once because the reload replaces state wholesale.
				if cfg.Log != nil {
					fmt.Fprintf(cfg.Log, "cluster: session %s: reloading after batch %d failure (status %d, err %v)\n",
						ss.Name, rec.Batch, status, err)
				}
				reloads++
				rec.Reloaded = true
				cost, secs, err := m.load(ctx)
				rec.Cost = cost
				rec.RouterSecs += secs
				if err != nil {
					return nil, reloads, fmt.Errorf("reload at t=%gs: %w", deltas[lo].Time, err)
				}
			case err != nil:
				return nil, reloads, fmt.Errorf("batch at t=%gs: %w", deltas[lo].Time, err)
			default:
				return nil, reloads, fmt.Errorf("batch at t=%gs: HTTP %d: %s", deltas[lo].Time, status, ans.Error)
			}
		}
		rec.RemoteSession = m.remoteID
		recs = append(recs, rec)
		if cfg.OnBatch != nil {
			cfg.OnBatch(rec)
		}
		lo = hi
	}
	// Final end-to-end check: the cluster session's full solution must
	// match the shadow's.
	finalReload, err := m.checkSolution(ctx)
	if finalReload {
		reloads++
	}
	if err != nil {
		return nil, reloads, err
	}
	return recs, reloads, nil
}

// checkSolution compares the cluster session's final solution cost against
// the shadow engine's. The session's shard can die between the last batch
// and this check; like any batch failure that is recovered by reloading the
// materialized shadow state (m.load itself differential-checks the cost).
func (m *sessionMirror) checkSolution(ctx context.Context) (reloaded bool, err error) {
	for attempt := 0; ; attempt++ {
		// Re-read the shadow cost each attempt: a reload rebuilds the engine.
		want, err := m.engine.Solution()
		if err != nil {
			return reloaded, err
		}
		got, fetchErr := m.fetchSolutionCost(ctx)
		if fetchErr == nil {
			if got != want.Cost {
				return reloaded, fmt.Errorf("final differential mismatch: cluster cost %v, shadow cost %v", got, want.Cost)
			}
			return reloaded, nil
		}
		if attempt > 0 || ctx.Err() != nil {
			return reloaded, fetchErr
		}
		if m.cfg.Log != nil {
			fmt.Fprintf(m.cfg.Log, "cluster: session %s: reloading for final check (%v)\n", m.name, fetchErr)
		}
		reloaded = true
		if _, _, err := m.load(ctx); err != nil {
			return reloaded, fmt.Errorf("reload for final check: %w", err)
		}
	}
}

// fetchSolutionCost reads the cluster session's current solution cost.
func (m *sessionMirror) fetchSolutionCost(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		m.cfg.RouterURL+"/session/"+m.remoteID+"/solution", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("final solution fetch: %w", err)
	}
	defer resp.Body.Close()
	var got struct {
		Cost float64 `json:"cost"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return 0, fmt.Errorf("final solution fetch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("final solution fetch: HTTP %d", resp.StatusCode)
	}
	return got.Cost, nil
}
