package solver

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/maxflow"
	"repro/internal/prep"
)

// SolveStats accumulates observability data about solves — the per-engine
// runtime telemetry a serving layer needs to pick algorithms and enforce
// deadlines. Attach one via Options.Stats; General, KTwo, ShortFirst,
// Portfolio, and Exact populate it. Fields accumulate across solves (and
// across nested phases: Short-First's two sub-solves and Portfolio's
// candidates each record individually), so a single struct can tally a whole
// benchmark run; call Reset between solves for per-solve numbers. All
// methods and all solver writes are guarded by an internal mutex, so one
// struct may be shared by concurrent solves. Use it by pointer only.
//
// SolveStats is populated from the solver's trace events (it is an
// obs.Sink consumer under the hood — see Options.Tracer), so the aggregate
// numbers here and the spans a tracer records are views of the same data.
type SolveStats struct {
	mu sync.Mutex

	// Algorithm names the solver that recorded most recently.
	Algorithm string
	// Solves counts tracked solve phases (nested phases count individually).
	Solves int
	// PrepTime accumulates wall time spent in preprocessing (Algorithm 1).
	PrepTime time.Duration
	// SolveTime accumulates wall time spent covering the residual
	// (set-cover / vertex-cover work after preprocessing).
	SolveTime time.Duration
	// TotalTime accumulates end-to-end wall time per tracked solve. With
	// nested solvers (Portfolio over ShortFirst) inner phases are counted
	// inside the outer span too, so TotalTime can exceed the wall clock a
	// caller observes.
	TotalTime time.Duration
	// Prep accumulates Algorithm 1's per-step counters.
	Prep prep.Stats
	// Components accumulates the number of residual components.
	Components int
	// WSCEngine lists, per component Algorithm 3 solved, the set-cover
	// engine whose output was kept ("greedy", "primal-dual", "lp-rounding").
	// With parallel component solving the list order follows completion
	// order; Render reports sorted counts.
	WSCEngine []string
	// MaxFlow accumulates max-flow engine work across Algorithm 2
	// components.
	MaxFlow maxflow.Stats
	// Cancelled reports whether some tracked solve was cut short by its
	// context.
	Cancelled bool
	// CancelReason is "deadline" (timeout fired), "cancelled" (context
	// cancelled), or "" when every tracked solve ran to completion.
	CancelReason string
	// Winner is the candidate Portfolio kept ("" for other solvers).
	Winner string
}

// Reset clears every counter, keeping the struct attachable.
func (s *SolveStats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Algorithm = ""
	s.Solves = 0
	s.PrepTime = 0
	s.SolveTime = 0
	s.TotalTime = 0
	s.Prep = prep.Stats{}
	s.Components = 0
	s.WSCEngine = nil
	s.MaxFlow = maxflow.Stats{}
	s.Cancelled = false
	s.CancelReason = ""
	s.Winner = ""
}

// engineCounts tallies WSCEngine into deterministic (name, count) pairs:
// the known engines first in fixed order, then any unknown names sorted.
// Callers must hold s.mu.
func (s *SolveStats) engineCounts() []engineCount {
	if len(s.WSCEngine) == 0 {
		return nil
	}
	counts := map[string]int{}
	for _, e := range s.WSCEngine {
		counts[e]++
	}
	var out []engineCount
	for _, e := range []string{"greedy", "primal-dual", "lp-rounding"} {
		if counts[e] > 0 {
			out = append(out, engineCount{e, counts[e]})
			delete(counts, e)
		}
	}
	rest := make([]string, 0, len(counts))
	for e := range counts {
		rest = append(rest, e)
	}
	sort.Strings(rest)
	for _, e := range rest {
		out = append(out, engineCount{e, counts[e]})
	}
	return out
}

type engineCount struct {
	Name  string
	Count int
}

// Render writes a human-readable report.
func (s *SolveStats) Render(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(w, "algorithm: %s (%d solve phase(s))\n", s.Algorithm, s.Solves)
	fmt.Fprintf(w, "time: total %v  (prep %v, solve %v)\n", s.TotalTime, s.PrepTime, s.SolveTime)
	fmt.Fprintf(w, "prep: %d selected (singleton %d, zero-cost %d, forced %d, step4 %d), %d removed, %d covered\n",
		s.Prep.SingletonSelected+s.Prep.ZeroCostSelected+s.Prep.Step3Selected+s.Prep.Step4Selected,
		s.Prep.SingletonSelected, s.Prep.ZeroCostSelected, s.Prep.Step3Selected, s.Prep.Step4Selected,
		s.Prep.Step3Removed+s.Prep.Step4Removed, s.Prep.QueriesCovered)
	fmt.Fprintf(w, "components: %d\n", s.Components)
	if counts := s.engineCounts(); len(counts) > 0 {
		parts := make([]string, 0, len(counts))
		for _, ec := range counts {
			parts = append(parts, fmt.Sprintf("%s×%d", ec.Name, ec.Count))
		}
		fmt.Fprintf(w, "wsc engines kept: %s\n", strings.Join(parts, " "))
	}
	if s.MaxFlow != (maxflow.Stats{}) {
		fmt.Fprintf(w, "max-flow: %d phases, %d augments, %d discharges, %d relabels\n",
			s.MaxFlow.Phases, s.MaxFlow.Augments, s.MaxFlow.Discharges, s.MaxFlow.Relabels)
	}
	if s.Winner != "" {
		fmt.Fprintf(w, "portfolio winner: %s\n", s.Winner)
	}
	if s.Cancelled {
		fmt.Fprintf(w, "cancelled: yes (%s)\n", s.CancelReason)
	}
}

// String renders the report into a string.
func (s *SolveStats) String() string {
	var b strings.Builder
	s.Render(&b)
	return b.String()
}

// jsonSolveStats is SolveStats' wire form: durations in seconds, engine
// picks as a name → count map (JSON object keys render sorted, so the
// output is deterministic).
type jsonSolveStats struct {
	Algorithm    string         `json:"algorithm"`
	Solves       int            `json:"solves"`
	PrepSeconds  float64        `json:"prep_seconds"`
	SolveSeconds float64        `json:"solve_seconds"`
	TotalSeconds float64        `json:"total_seconds"`
	Prep         prep.Stats     `json:"prep"`
	Components   int            `json:"components"`
	WSCEngines   map[string]int `json:"wsc_engines,omitempty"`
	MaxFlow      *maxflow.Stats `json:"maxflow,omitempty"`
	Cancelled    bool           `json:"cancelled,omitempty"`
	CancelReason string         `json:"cancel_reason,omitempty"`
	Winner       string         `json:"winner,omitempty"`
}

// MarshalJSON renders a consistent snapshot taken under the lock — the
// format mc3bench's -json report embeds.
func (s *SolveStats) MarshalJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := jsonSolveStats{
		Algorithm:    s.Algorithm,
		Solves:       s.Solves,
		PrepSeconds:  s.PrepTime.Seconds(),
		SolveSeconds: s.SolveTime.Seconds(),
		TotalSeconds: s.TotalTime.Seconds(),
		Prep:         s.Prep,
		Components:   s.Components,
		Cancelled:    s.Cancelled,
		CancelReason: s.CancelReason,
		Winner:       s.Winner,
	}
	if counts := s.engineCounts(); len(counts) > 0 {
		doc.WSCEngines = make(map[string]int, len(counts))
		for _, ec := range counts {
			doc.WSCEngines[ec.Name] = ec.Count
		}
	}
	if s.MaxFlow != (maxflow.Stats{}) {
		mf := s.MaxFlow
		doc.MaxFlow = &mf
	}
	return json.Marshal(doc)
}

// addPrepStats accumulates b into a field by field.
func addPrepStats(a *prep.Stats, b prep.Stats) {
	a.SingletonSelected += b.SingletonSelected
	a.ZeroCostSelected += b.ZeroCostSelected
	a.Step3Removed += b.Step3Removed
	a.Step3Selected += b.Step3Selected
	a.Step4Removed += b.Step4Removed
	a.Step4Selected += b.Step4Selected
	a.QueriesCovered += b.QueriesCovered
	a.Components += b.Components
}
