package maxflow

// Stats counts the work a max-flow engine performed during one run. The
// counters are engine-specific: Dinic reports Phases (BFS level rebuilds)
// and Augments, push-relabel reports Discharges and Relabels. Zero-valued counters simply
// mean the engine does not use that notion of work.
type Stats struct {
	// Phases counts Dinic BFS phases.
	Phases int
	// Augments counts Dinic augmenting paths pushed.
	Augments int
	// Discharges counts push-relabel discharge operations.
	Discharges int
	// Relabels counts push-relabel relabel operations.
	Relabels int
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Phases += o.Phases
	s.Augments += o.Augments
	s.Discharges += o.Discharges
	s.Relabels += o.Relabels
}
