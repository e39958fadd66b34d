package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/textio"
	"repro/internal/workload"
)

// numClients is the closed-loop client count: one per CPU, at most two.
func numClients() int { return min(runtime.NumCPU(), 2) }

// server is an in-process mc3serve on a loopback listener.
type server struct {
	url  string
	hs   *http.Server
	done chan error
}

func startServer() (*server, error) {
	s, err := serve.New(serve.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &server{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: s}, done: make(chan error, 1)}
	go func() { sv.done <- sv.hs.Serve(ln) }()
	return sv, nil
}

// close stops the server and waits for its accept loop to return.
func (s *server) close() {
	if s == nil {
		return
	}
	s.hs.Close()
	<-s.done
}

// serverOptions are the solver options serve.DefaultConfig gives every
// request: the paper's defaults, GOMAXPROCS component workers, validated.
func serverOptions() solver.Options {
	opts := solver.DefaultOptions()
	opts.Parallelism = -1
	opts.Validate = true
	return opts
}

// client is the load generator's HTTP side: keep-alive connections, one per
// client goroutine.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// do sends one request and decodes a 2xx JSON answer into out; any other
// status is an *httpError.
func (c *client) do(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &httpError{resp.StatusCode, string(bytes.TrimSpace(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// serverStats is the part of GET /stats the traced run reads.
type serverStats struct {
	Cache cache.Stats `json:"cache"`
	Sched struct {
		Tasks  int64 `json:"tasks"`
		Steals int64 `json:"steals"`
	} `json:"sched"`
}

func (c *client) stats(url string) (serverStats, error) {
	var st serverStats
	err := c.do(http.MethodGet, url+"/stats", nil, &st)
	return st, err
}

// addServerCounters stores the cache and scheduler work the server did
// between two /stats reads as round totals.
func (p *probe) addServerCounters(a, b serverStats) {
	hits := b.Cache.Hits - a.Cache.Hits
	lookups := hits + b.Cache.Misses - a.Cache.Misses
	p.totals["cache.lookups"] = float64(lookups)
	p.totals["cache.evictions"] = float64(b.Cache.Evictions - a.Cache.Evictions)
	if lookups > 0 {
		p.totals["cache.hit_ratio"] = float64(hits) / float64(lookups)
	}
	p.totals["sched.tasks"] = float64(b.Sched.Tasks - a.Sched.Tasks)
	p.totals["sched.steals"] = float64(b.Sched.Steals - a.Sched.Steals)
}

// runClients runs f once per client goroutine and merges their tallies
// into t.
func runClients(n int, t *tally, f func(c int, t *tally)) {
	tallies := make([]tally, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c, &tallies[c])
		}(c)
	}
	wg.Wait()
	for c := range tallies {
		t.merge(&tallies[c])
	}
}

// serve-solve shape: a pool of distinct bodies requested with Zipf
// frequencies. Only the bodies' queries depend on the seed; each pool rank's
// size and slice are fixed, so every seed asks for the same amount of work.
//
// No traffic log exists to take the mix from. The one measured figure is the
// serve probe's cache hit ratio, about 0.78, and the pool size and exponent
// are set to match it: with 48 bodies and exponent 1.0 the traced first
// round repeats an earlier body in 0.69 of its requests, and the cache
// answers 0.785–0.810 of its component lookups (seeds 101–110, median 0.79;
// exponent 1.1 gave 0.81–0.83). The sizes, the slice of every third body and
// the rank order of the sizes are not taken from traffic either; they are
// the benchmark's choice (see solveSize).
const (
	solvePool      = 48
	solveMinSize   = 200
	solveMaxSize   = 800
	solveSizeStep  = 7 // rank i gets size step (i*7+24) mod 48 of 47 between min and max
	solveZipfS     = 1.0
	solveWarmup    = 4    // requests per client in set-up
	solveRound     = 60   // first-round requests per client
	solveSeqLen    = 4096 // request sequence, cycled; client c starts c/clients into it
	solveShortEach = 3    // every third pool body (ranks 1, 4, 7, ...) is from the length ≤ 2 slice
)

// solveSize is the query count of pool rank i: the ranks cover 200–800
// evenly, and the most requested ones sit mid-range. Rank 0, a fifth of all
// requests, is a mid-size body of the full load, so the median latency
// tends to fall inside its share rather than on the border between two
// bodies, where it would jump with each seed's body contents.
func solveSize(i int) int {
	step := (i*solveSizeStep + solvePool/2) % solvePool
	return solveMinSize + step*(solveMaxSize-solveMinSize)/(solvePool-1)
}

// zipfSequence returns n pool ranks in which rank k occurs with frequency
// proportional to (1+k)^-s, in every window as closely as whole requests
// allow (smooth weighted round robin: each step picks the rank furthest
// behind its share). A drawn sequence would make the mix, and with it each
// run's work, depend on the seed.
func zipfSequence(n, pool int, s float64) []int {
	w := make([]float64, pool)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(1+k), -s)
		total += w[k]
	}
	credit := make([]float64, pool)
	seq := make([]int, n)
	for i := range seq {
		best := 0
		for k := range credit {
			credit[k] += w[k]
			if credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= total
		seq[i] = best
	}
	return seq
}

// solveAnswer is the part of a /solve answer the benchmark reads.
type solveAnswer struct {
	Cost    float64 `json:"cost"`
	Seconds float64 `json:"seconds"`
}

// serveSolve is the serve-solve workload.
//
// Its check compares every answer with a cache-less solve of the same body,
// while the server answers components from a cache all requests share, and
// which body stores a component first depends on the two clients' timing. A
// cache hit carries the storing body's greedy tie-breaks, so it can change
// the cost only where the two bodies present the component differently.
// Here every body lists its queries in the load's order and File.Build
// interns properties in query order; components share no properties, so a
// component two bodies both hold is presented alike in both and solves
// alike. Only a component isomorphic to one with other property names could
// differ. That case is not excluded, only rare: no check failed in ten-seed
// timed sets over seeds 101–120 (about 2000 requests each) nor in traced
// runs over seeds 1–20 and 101–110.
type serveSolve struct {
	pool    [][]byte
	want    []float64
	base    []float64 // per pool body: its singleton-cover price
	seqs    [][]int
	clients int
	sv      *server
	cl      *client
}

func newServeSolve(seed int64) (*serveSolve, error) {
	d := workload.Private(seed)
	short := d.ShortSlice()
	rng := rand.New(rand.NewSource(seed))
	w := &serveSolve{clients: numClients()}
	opts := serverOptions()
	for i := 0; i < solvePool; i++ {
		src := d
		if i%solveShortEach == 1 {
			src = short
		}
		inst, err := src.SubsetInstance(solveSize(i), rng.Int63())
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(textio.FromInstance(inst))
		if err != nil {
			return nil, err
		}
		// Reference: solver.Auto on the same bytes without the cache.
		want, err := solveBody(body, opts, nil)
		if err != nil {
			return nil, fmt.Errorf("reference solve: %w", err)
		}
		w.pool = append(w.pool, body)
		w.want = append(w.want, want.Cost)
		w.base = append(w.base, singletonCover(inst.Queries(), d.Costs))
	}
	seq := zipfSequence(solveSeqLen, solvePool, solveZipfS)
	for c := 0; c < w.clients; c++ {
		off := c * solveSeqLen / w.clients
		w.seqs = append(w.seqs, append(append([]int(nil), seq[off:]...), seq[:off]...))
	}
	return w, nil
}

// solveBody is the /solve handler's pipeline outside HTTP: decode, build,
// solve, encode. p (nil outside the traced round) times each layer.
func solveBody(body []byte, opts solver.Options, p *probe) (*core.Solution, error) {
	root := p.beginOp()
	defer p.endOp(root)
	inst, err := decodeBuild(body, p, root)
	if err != nil {
		return nil, err
	}
	opts = p.traceOpts(opts)
	var sol *core.Solution
	p.solveSpan(root, "solver.Auto", false, func() { sol, err = solver.Auto(inst, opts) })
	if err != nil {
		return nil, err
	}
	err = p.timeSpan(root, "serve.encode(SolutionNames+JSON)", "serve.encode_ms", func() error {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Cost        float64    `json:"cost"`
			Classifiers [][]string `json:"classifiers"`
			Queries     int        `json:"queries"`
		}{sol.Cost, textio.SolutionNames(inst, sol), inst.NumQueries()})
	})
	return sol, err
}

func (w *serveSolve) setup() error {
	w.close()
	sv, err := startServer()
	if err != nil {
		return err
	}
	w.sv, w.cl = sv, newClient(w.clients)
	var t tally
	runClients(w.clients, &t, func(c int, t *tally) {
		for _, idx := range w.seqs[c][:solveWarmup] {
			w.request(idx, t)
		}
	})
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %s", t.notes[0])
	}
	return nil
}

// request sends pool body idx to /solve, checks the answer and returns it.
func (w *serveSolve) request(idx int, t *tally) (solveAnswer, error) {
	var a solveAnswer
	start := time.Now()
	err := w.cl.do(http.MethodPost, w.sv.url+"/solve", w.pool[idx], &a)
	t.op(msSince(start), err)
	if err == nil {
		t.check(checkCost(fmt.Sprintf("/solve of pool body %d", idx), a.Cost, w.want[idx]))
	}
	return a, err
}

func (w *serveSolve) run(deadline time.Time, t *tally) error {
	runClients(w.clients, t, func(c int, t *tally) {
		seq := w.seqs[c]
		for i := 0; i < solveRound || time.Now().Before(deadline); i++ {
			idx := seq[i%len(seq)]
			if a, err := w.request(idx, t); err == nil && i < solveRound {
				t.cost += a.Cost
				t.base += w.base[idx]
			}
		}
	})
	return nil
}

func (w *serveSolve) verify(*tally) error { return nil }

// repeatedShare is the share of first-round requests whose body an earlier
// request already sent.
func (w *serveSolve) repeatedShare() float64 {
	seen := map[int]bool{}
	n := 0
	for _, seq := range w.seqs {
		for _, idx := range seq[:solveRound] {
			if seen[idx] {
				n++
			}
			seen[idx] = true
		}
	}
	return float64(n) / float64(len(w.seqs)*solveRound)
}

func (w *serveSolve) trace(t *tally) (*traceReport, error) {
	p := newProbe()
	// The first round over HTTP: client latency against the answers'
	// solve seconds, and the server's cache and scheduler counters.
	before, err := w.cl.stats(w.sv.url)
	if err != nil {
		return nil, err
	}
	var latMS, solveMS float64
	var mu sync.Mutex
	runClients(w.clients, t, func(c int, t *tally) {
		for _, idx := range w.seqs[c][:solveRound] {
			n := len(t.lat)
			a, err := w.request(idx, t)
			if err != nil {
				continue
			}
			mu.Lock()
			latMS += t.lat[n]
			solveMS += a.Seconds * 1e3
			mu.Unlock()
		}
	})
	after, err := w.cl.stats(w.sv.url)
	if err != nil {
		return nil, err
	}
	p.addServerCounters(before, after)
	p.totals["serve.overhead_ms"] = latMS - solveMS
	p.totals["serve.solve_share"] = solveMS / latMS

	// The same requests replayed serially through the handler's pipeline,
	// untraced and then traced, each with a fresh shared cache warmed
	// like the server's. The untraced replay checks every answer.
	replay := func(p *probe) (time.Duration, error) {
		opts := serverOptions()
		opts.Cache = cache.New(cache.Config{})
		for c := range w.seqs {
			for _, idx := range w.seqs[c][:solveWarmup] {
				if _, err := solveBody(w.pool[idx], opts, nil); err != nil {
					return 0, err
				}
			}
		}
		runtime.GC()
		p.begin()
		start := time.Now()
		for i := 0; i < solveRound; i++ {
			for c := range w.seqs {
				idx := w.seqs[c][i]
				sol, err := solveBody(w.pool[idx], opts, p)
				if err != nil {
					return 0, err
				}
				if p == nil {
					t.check(checkCost(fmt.Sprintf("replayed /solve of pool body %d", idx), sol.Cost, w.want[idx]))
				}
			}
		}
		return time.Since(start), nil
	}
	untraced, err := replay(nil)
	if err != nil {
		return nil, err
	}
	traced, err := replay(p)
	if err != nil {
		return nil, err
	}
	ops := w.clients * solveRound
	rep := p.report(ops, traced, untraced)
	rep.note = fmt.Sprintf("first round: %d requests, %.3f of them repeat an earlier body", ops, w.repeatedShare())
	return rep, nil
}

func (w *serveSolve) close() {
	if w.cl != nil {
		w.cl.close()
	}
	w.sv.close()
	w.sv, w.cl = nil, nil
}

// serve-session shape.
const (
	sessionSize       = 5000
	sessionBatch      = 8
	sessionRound      = 24   // first-round batches per client
	sessionMaxBatches = 2500 // cap on the seeded batch sequence per client
)

// sessionAnswer is the part of a /load or /delta answer the benchmark
// reads.
type sessionAnswer struct {
	Session string  `json:"session"`
	Cost    float64 `json:"cost"`
	Dirty   int     `json:"dirty"`
	Reused  int     `json:"reused"`
	Seconds float64 `json:"seconds"`
}

// wireDelta is the /delta JSON form of one delta.
type wireDelta struct {
	Op    string   `json:"op"`
	Props []string `json:"props"`
	Cost  float64  `json:"cost,omitempty"`
}

// serveSession is the serve-session workload. Each client's session lives on
// a server of its own: sessions on one server share its component cache, so
// an answer would depend on what the other session happened to store first
// (the cache keys isomorphic components alike, but a greedy solve's tie-breaks
// follow each session's property order), and no shadow could check it.
type serveSession struct {
	clients int
	loads   [][]byte   // per client: the /load body
	batches [][][]byte // per client: encoded /delta bodies
	deltas  [][][]incr.Delta
	svs     []*server // per client
	cl      *client
	ids     []string
	loadOK  []float64   // per client: the /load answer's cost
	got     [][]float64 // per client: the timed batches' answered costs
	base    [][]float64 // per client and first-round batch: the live queries' singleton-cover price
}

func newServeSession(seed int64) (*serveSession, error) {
	d := workload.Private(seed)
	full, err := d.Instance()
	if err != nil {
		return nil, err
	}
	// Every classifier any delta can need is priced: the cost table of the
	// whole load, while each session loads a 5k-query subset.
	costs := textio.FromInstance(full).Costs
	names := func(q core.PropSet) []string { return d.Universe.SetNames(q) }
	w := &serveSession{clients: numClients()}
	for c := 0; c < w.clients; c++ {
		live, err := d.SubsetQueries(sessionSize, seed+int64(c)+1)
		if err != nil {
			return nil, err
		}
		file := &textio.File{Costs: costs}
		for _, q := range live {
			file.Queries = append(file.Queries, names(q))
		}
		body, err := json.Marshal(file)
		if err != nil {
			return nil, err
		}
		w.loads = append(w.loads, body)

		// The mc3gen -deltas mix, continuing from the loaded session: adds
		// walk a seeded permutation of the load (then repeat it), removes
		// take a live query, re-pricings a sub-classifier of one.
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		order := rng.Perm(len(d.Queries))
		next := 0
		var batches [][]incr.Delta
		var bodies [][]byte
		var base []float64
		for b := 0; b < sessionMaxBatches; b++ {
			batch := make([]incr.Delta, 0, sessionBatch)
			wire := make([]wireDelta, 0, sessionBatch)
			for len(batch) < sessionBatch {
				switch r := rng.Float64(); {
				case r < 0.70 || len(live) == 0:
					q := d.Queries[order[next%len(order)]]
					next++
					live = append(live, q)
					batch = append(batch, incr.Add(names(q)...))
					wire = append(wire, wireDelta{Op: "add", Props: names(q)})
				case r < 0.90:
					j := rng.Intn(len(live))
					batch = append(batch, incr.Remove(names(live[j])...))
					wire = append(wire, wireDelta{Op: "remove", Props: names(live[j])})
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				default:
					q := live[rng.Intn(len(live))]
					k := rng.Intn(q.Len()) + 1
					sub := make([]string, 0, k)
					for _, j := range rng.Perm(q.Len())[:k] {
						sub = append(sub, d.Universe.Name(q[j]))
					}
					cost := float64(rng.Intn(50) + 1)
					batch = append(batch, incr.UpdateCost(cost, sub...))
					wire = append(wire, wireDelta{Op: "update-cost", Props: sub, Cost: cost})
				}
			}
			body, err := json.Marshal(struct {
				Deltas []wireDelta `json:"deltas"`
			}{wire})
			if err != nil {
				return nil, err
			}
			batches = append(batches, batch)
			bodies = append(bodies, body)
			if b < sessionRound {
				base = append(base, singletonCover(live, d.Costs))
			}
		}
		w.deltas = append(w.deltas, batches)
		w.batches = append(w.batches, bodies)
		w.base = append(w.base, base)
	}
	return w, nil
}

func (w *serveSession) setup() error {
	w.close()
	w.cl = newClient(w.clients)
	for c := 0; c < w.clients; c++ {
		sv, err := startServer()
		if err != nil {
			return err
		}
		w.svs = append(w.svs, sv)
	}
	w.ids = make([]string, w.clients)
	w.loadOK = make([]float64, w.clients)
	var t tally
	runClients(w.clients, &t, func(c int, t *tally) {
		var a sessionAnswer
		err := w.cl.do(http.MethodPost, w.svs[c].url+"/load", w.loads[c], &a)
		t.op(0, err)
		w.ids[c], w.loadOK[c] = a.Session, a.Cost
	})
	if t.failed > 0 {
		return fmt.Errorf("session load: %s", t.notes[0])
	}
	return nil
}

// batch sends client c's batch i.
func (w *serveSession) batch(c, i int, t *tally) (sessionAnswer, error) {
	var a sessionAnswer
	start := time.Now()
	err := w.cl.do(http.MethodPost, w.svs[c].url+"/session/"+w.ids[c]+"/delta", w.batches[c][i], &a)
	t.op(msSince(start), err)
	return a, err
}

// stats sums GET /stats over the session servers.
func (w *serveSession) stats() (serverStats, error) {
	var sum serverStats
	for _, sv := range w.svs {
		st, err := w.cl.stats(sv.url)
		if err != nil {
			return sum, err
		}
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.Misses += st.Cache.Misses
		sum.Cache.Evictions += st.Cache.Evictions
		sum.Sched.Tasks += st.Sched.Tasks
		sum.Sched.Steals += st.Sched.Steals
	}
	return sum, nil
}

func (w *serveSession) run(deadline time.Time, t *tally) error {
	w.got = make([][]float64, w.clients)
	runClients(w.clients, t, func(c int, t *tally) {
		for i := 0; i < len(w.batches[c]) && (i < sessionRound || time.Now().Before(deadline)); i++ {
			a, err := w.batch(c, i, t)
			if err != nil {
				return // the session's later answers are unknown
			}
			w.got[c] = append(w.got[c], a.Cost)
			if i < sessionRound {
				t.cost += a.Cost
				t.base += w.base[c][i]
			}
		}
	})
	return nil
}

// newEngine builds client c's session engine the way the /load handler of
// the session's own server does: a fresh universe, the body's cost table,
// the server's solver options, a cache of its own, the query list applied
// as one Add batch. It returns the engine and the load's cost.
func (w *serveSession) newEngine(c int, p *probe) (*incr.Engine, float64, error) {
	file, err := textio.Read(bytes.NewReader(w.loads[c]))
	if err != nil {
		return nil, 0, err
	}
	u := core.NewUniverse()
	cfg := incr.Config{Costs: file.CostModelFor(u), Universe: u, Algo: incr.AlgoAuto, Options: serverOptions()}
	if p != nil {
		cfg.Tracer = p.tracer
	}
	e, err := incr.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	adds := make([]incr.Delta, len(file.Queries))
	for i, q := range file.Queries {
		adds[i] = incr.Add(q...)
	}
	res, err := e.Apply(context.Background(), adds)
	if err != nil {
		return nil, 0, err
	}
	return e, res.Cost, nil
}

// verify replays every session's load and answered batches through a shadow
// engine with its own private cache, like the session's server holds (the
// mc3replay -cluster mirror), and checks each cost.
func (w *serveSession) verify(t *tally) error {
	errs := make([][]error, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = w.shadow(c)
		}(c)
	}
	wg.Wait()
	for _, es := range errs {
		for _, err := range es {
			t.check(err)
		}
	}
	return nil
}

func (w *serveSession) shadow(c int) []error {
	e, cost, err := w.newEngine(c, nil)
	if err != nil {
		return []error{fmt.Errorf("shadow load %d: %w", c, err)}
	}
	var errs []error
	if err := checkCost(fmt.Sprintf("session %d /load", c), w.loadOK[c], cost); err != nil {
		errs = append(errs, err)
	}
	for i, got := range w.got[c] {
		res, err := e.Apply(context.Background(), w.deltas[c][i])
		if err != nil {
			return append(errs, fmt.Errorf("shadow apply %d/%d: %w", c, i, err))
		}
		if err := checkCost(fmt.Sprintf("session %d batch %d", c, i), got, res.Cost); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (w *serveSession) trace(t *tally) (*traceReport, error) {
	p := newProbe()
	// The first round over HTTP, checked below against the replays.
	before, err := w.stats()
	if err != nil {
		return nil, err
	}
	w.got = make([][]float64, w.clients)
	var latMS, solveMS, dirty, reused float64
	var mu sync.Mutex
	runClients(w.clients, t, func(c int, t *tally) {
		for i := 0; i < sessionRound; i++ {
			n := len(t.lat)
			a, err := w.batch(c, i, t)
			if err != nil {
				return
			}
			w.got[c] = append(w.got[c], a.Cost)
			mu.Lock()
			latMS += t.lat[n]
			solveMS += a.Seconds * 1e3
			dirty += float64(a.Dirty)
			reused += float64(a.Reused)
			mu.Unlock()
		}
	})
	after, err := w.stats()
	if err != nil {
		return nil, err
	}
	p.addServerCounters(before, after)
	p.totals["serve.overhead_ms"] = latMS - solveMS
	p.totals["serve.solve_share"] = solveMS / latMS
	p.totals["incr.dirty_per_batch"] = dirty
	if dirty+reused > 0 {
		p.totals["incr.dirty_ratio"] = dirty / (dirty + reused)
	}

	// The same batches replayed through incr.Engine.Apply outside HTTP,
	// interleaved across sessions, with engines and caches built like the
	// servers': untraced, then traced. The untraced replay checks every
	// batch's cost against the HTTP answers.
	replay := func(p *probe) (time.Duration, error) {
		engines := make([]*incr.Engine, w.clients)
		for c := range engines {
			e, cost, err := w.newEngine(c, p)
			if err != nil {
				return 0, err
			}
			if p == nil {
				t.check(checkCost(fmt.Sprintf("replayed session %d /load", c), w.loadOK[c], cost))
			}
			engines[c] = e
		}
		runtime.GC()
		p.begin()
		start := time.Now()
		for i := 0; i < sessionRound; i++ {
			for c, e := range engines {
				if i >= len(w.got[c]) {
					continue
				}
				res, err := w.applyBody(e, w.batches[c][i], p)
				if err != nil {
					return 0, err
				}
				if p == nil {
					t.check(checkCost(fmt.Sprintf("session %d batch %d", c, i), w.got[c][i], res.Cost))
				}
			}
		}
		return time.Since(start), nil
	}
	untraced, err := replay(nil)
	if err != nil {
		return nil, err
	}
	traced, err := replay(p)
	if err != nil {
		return nil, err
	}
	return p.report(w.clients*sessionRound, traced, untraced), nil
}

// applyBody is the /delta handler's pipeline outside HTTP: decode the
// batch, apply it, encode the answer. p (nil outside the traced round) times
// each layer.
func (w *serveSession) applyBody(e *incr.Engine, body []byte, p *probe) (*incr.Result, error) {
	root := p.beginOp()
	defer p.endOp(root)
	var deltas []incr.Delta
	err := p.timeSpan(root, "serve.decode(delta JSON)", "", func() error {
		var req struct {
			Deltas []wireDelta `json:"deltas"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		for _, wd := range req.Deltas {
			op, err := incr.ParseOp(wd.Op)
			if err != nil {
				return err
			}
			deltas = append(deltas, incr.Delta{Op: op, Props: wd.Props, Cost: wd.Cost})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var res *incr.Result
	aid := p.solveSpan(root, "incr.Engine.Apply", false, func() { res, err = e.Apply(context.Background(), deltas) })
	if p != nil {
		p.totals["incr.apply_ms"] += p.log.recs[aid-1].DurMS
	}
	if err != nil {
		return nil, err
	}
	err = p.timeSpan(root, "serve.encode(JSON)", "serve.encode_ms", func() error {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	})
	return res, err
}

func (w *serveSession) close() {
	if w.cl != nil {
		w.cl.close()
	}
	for _, sv := range w.svs {
		sv.close()
	}
	w.svs, w.cl = nil, nil
}
