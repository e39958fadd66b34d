// Package bench regenerates the paper's experimental study (Section 6):
// Table 1 and Figures 3a–3f, plus ablations over the design choices this
// repository documents in DESIGN.md. Each experiment returns a Table whose
// rows and series mirror what the paper reports; cmd/mc3bench renders them,
// and the repository-level benchmarks wrap them for `go test -bench`.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Config scales the experiment suite. The zero value is upgraded to the
// paper's full scale by Defaults; tests and benchmarks use reduced scales.
type Config struct {
	// Seed drives all dataset generation.
	Seed int64
	// BBSizes are the BestBuy subset cardinalities (Figure 3a's x-axis).
	BBSizes []int
	// PShortSizes are the Private short-slice subset cardinalities
	// (Figure 3b).
	PShortSizes []int
	// PSizes are the Private subset cardinalities (Figure 3d); the
	// smallest point is replaced by the fashion category slice, as in the
	// paper.
	PSizes []int
	// SyntheticSizes are the synthetic dataset sizes (Figures 3c/3e/3f).
	SyntheticSizes []int
	// Repeats is the number of timing repetitions (minimum is reported).
	Repeats int
	// Timeout, when positive, bounds each individual solve's wall time;
	// a solve that exceeds it fails its experiment with
	// context.DeadlineExceeded.
	Timeout time.Duration
	// Stats, when non-nil, accumulates solve observability data across
	// every solve of the run (see solver.SolveStats).
	Stats *solver.SolveStats
	// Tracer, when non-nil, traces every solve of the run (see
	// solver.Options.Tracer).
	Tracer *obs.Tracer
	// Cache, when non-nil, memoizes component solutions across every solve
	// of the run (see solver.Options.Cache) — experiments that revisit the
	// same dataset at growing subset sizes re-meet components, so the
	// hit/miss counters quantify real-workload amortization.
	Cache *cache.Cache
	// StreamQueries is the query count of the streaming experiments
	// (stream-gap / stream-mem — not part of "all"; see StreamGap and
	// StreamMem).
	StreamQueries int64
	// StreamPartitions is the number of property-disjoint partitions the
	// streamed synthetic load is generated in (workload.SyntheticStream).
	StreamPartitions int
	// GapTargets are the certified-gap targets of the stream-gap curve;
	// 0 is the exact arm. Sorted output follows the given order.
	GapTargets []float64
	// SampleSize overrides the sampling path's initial sample size
	// (0 = solver default).
	SampleSize int
}

// SolverOptions returns the paper-default solver options carrying the
// configuration's Timeout and Stats. Experiments use this instead of
// solver.DefaultOptions so runs can be deadline-bounded and observed.
func (c Config) SolverOptions() solver.Options {
	opts := solver.DefaultOptions()
	opts.Timeout = c.Timeout
	opts.Stats = c.Stats
	opts.Tracer = c.Tracer
	opts.Cache = c.Cache
	return opts
}

// Defaults fills unset fields with the paper-scale configuration.
func (c Config) Defaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.BBSizes) == 0 {
		c.BBSizes = []int{100, 250, 500, 750, 1000}
	}
	if len(c.PShortSizes) == 0 {
		c.PShortSizes = []int{1000, 2000, 4000, 6000}
	}
	if len(c.PSizes) == 0 {
		c.PSizes = []int{1000, 2500, 5000, 10000}
	}
	if len(c.SyntheticSizes) == 0 {
		c.SyntheticSizes = []int{1000, 10000, 50000, 100000}
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if c.StreamQueries <= 0 {
		c.StreamQueries = 1_000_000
	}
	if c.StreamPartitions <= 0 {
		c.StreamPartitions = 16
	}
	if len(c.GapTargets) == 0 {
		c.GapTargets = []float64{0, 0.02, 0.1, 0.5}
	}
	return c
}

// Quick returns a reduced-scale configuration for tests and smoke runs.
func Quick(seed int64) Config {
	return Config{
		Seed:           seed,
		BBSizes:        []int{100, 300},
		PShortSizes:    []int{300, 800},
		PSizes:         []int{400, 1000},
		SyntheticSizes: []int{500, 2000},
		Repeats:        1,

		StreamQueries:    50_000,
		StreamPartitions: 8,
		GapTargets:       []float64{0, 0.1},
	}
}

// Series is one labelled column of results.
type Series struct {
	// Name labels the series (an algorithm or experiment arm).
	Name string
	// Values holds one value per x-axis point (NaN = not applicable).
	Values []float64
}

// Table is a rendered experiment: the same rows/series the paper reports.
type Table struct {
	// ID is the paper artefact this regenerates ("table1", "fig3a", …).
	ID string
	// Title describes the experiment.
	Title string
	// XLabel names the row dimension.
	XLabel string
	// XValues are the row labels.
	XValues []string
	// Unit annotates the values ("cost", "seconds", …).
	Unit string
	// Series are the columns.
	Series []Series
	// Notes carries paper-comparison commentary.
	Notes string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, "unit: %s\n", t.Unit)
	}

	headers := make([]string, 0, len(t.Series)+1)
	headers = append(headers, t.XLabel)
	for _, s := range t.Series {
		headers = append(headers, s.Name)
	}
	rows := make([][]string, len(t.XValues))
	for i, x := range t.XValues {
		row := make([]string, 0, len(t.Series)+1)
		row = append(row, x)
		for _, s := range t.Series {
			if i < len(s.Values) {
				row = append(row, formatValue(s.Values[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows[i] = row
	}

	widths := make([]int, len(headers))
	for j, h := range headers {
		widths[j] = len(h)
	}
	for _, row := range rows {
		for j, cell := range row {
			if len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for j, c := range cells {
			parts[j] = pad(c, widths[j])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for j := range sep {
		sep[j] = strings.Repeat("-", widths[j])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

func formatValue(v float64) string {
	switch {
	case v != v: // NaN
		return "-"
	case v == float64(int64(v)) && v < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// RenderCSV writes the table as CSV (header row, then one row per x-value),
// for plotting the figures outside the terminal.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(t.Series)+1)
	header = append(header, t.XLabel)
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, x := range t.XValues {
		row := make([]string, 0, len(t.Series)+1)
		row = append(row, x)
		for _, s := range t.Series {
			if i < len(s.Values) {
				row = append(row, formatValue(s.Values[i]))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderMarkdown writes the table as a GitHub-flavored markdown table — the
// format EXPERIMENTS.md uses, so its tables can be regenerated verbatim.
func (t *Table) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, "unit: %s\n\n", t.Unit)
	}
	fmt.Fprintf(w, "| %s |", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(w, " %s |", s.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "|---|")
	for range t.Series {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for i, x := range t.XValues {
		fmt.Fprintf(w, "| %s |", x)
		for _, s := range t.Series {
			if i < len(s.Values) {
				fmt.Fprintf(w, " %s |", formatValue(s.Values[i]))
			} else {
				fmt.Fprint(w, " — |")
			}
		}
		fmt.Fprintln(w)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "\n_%s_\n", t.Notes)
	}
	fmt.Fprintln(w)
}
