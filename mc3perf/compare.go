package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// compareMain implements `mc3perf compare [--bench FILE] OLD NEW`: it reads
// two results files written with --out, prints each workload × metric's
// median and relative IQR side by side with the change of the median, and
// flags only the changes outside the metric's bound: "WORSE" or "better"
// when the medians moved by more than the bound, "unresolved" when either
// side's own spread exceeds the bound, so the runs cannot tell.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mc3perf compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want two results files (old, new), got %d", fs.NArg())
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	oldRecs, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	newRecs, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := compareRecords(spec, oldRecs, newRecs)
	fmt.Fprintf(w, "%-16s %-5s %-28s %14s %8s %14s %8s %9s  %s\n",
		"workload", "trace", "metric", "old median", "old IQR", "new median", "new IQR", "change", "flag")
	flagged := 0
	for _, r := range rows {
		if r.flag != "" {
			flagged++
		}
		fmt.Fprintf(w, "%-16s %-5d %-28s %14.6g %7.2f%% %14.6g %7.2f%% %8.2f%%  %s\n",
			r.workload, r.trace, r.metric, r.oldMed, 100*r.oldIQR, r.newMed, 100*r.newIQR, 100*r.change, r.flag)
	}
	fmt.Fprintf(w, "%d of %d workload x metric pairs flagged; runs: old %d (%d incorrect), new %d (%d incorrect)\n",
		flagged, len(rows), len(oldRecs), incorrect(oldRecs), len(newRecs), incorrect(newRecs))
	return nil
}

// compareRow is one workload × metric comparison.
type compareRow struct {
	workload       string
	trace          int
	metric         string
	oldMed, oldIQR float64
	newMed, newIQR float64
	change         float64 // (new − old) / |old|
	flag           string
}

func compareRecords(spec *benchSpec, oldRecs, newRecs []record) []compareRow {
	specs := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		specs[m.Name] = m
	}
	type key struct {
		workload string
		trace    int
		metric   string
	}
	group := func(recs []record) map[key][]float64 {
		g := map[key][]float64{}
		for _, r := range recs {
			for name, m := range r.Metrics {
				k := key{r.Workload, r.Trace, name}
				g[k] = append(g[k], m.Value)
			}
		}
		return g
	}
	oldG, newG := group(oldRecs), group(newRecs)
	var keys []key
	for k := range oldG {
		if _, ok := newG[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.metric < b.metric
	})
	rows := make([]compareRow, 0, len(keys))
	for _, k := range keys {
		r := compareRow{workload: k.workload, trace: k.trace, metric: k.metric}
		r.oldMed, r.oldIQR = median(oldG[k]), relIQR(oldG[k])
		r.newMed, r.newIQR = median(newG[k]), relIQR(newG[k])
		if r.oldMed != 0 {
			r.change = (r.newMed - r.oldMed) / math.Abs(r.oldMed)
		}
		if s, ok := specs[k.metric]; ok && s.Bound != nil {
			r.flag = judge(r.change, r.oldIQR, r.newIQR, *s.Bound, s.Better)
		}
		rows = append(rows, r)
	}
	return rows
}

// judge flags a change of the median against the metric's bound.
func judge(change, oldIQR, newIQR, bound float64, better string) string {
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case oldIQR > bound || newIQR > bound:
		return "unresolved (spread > bound)"
	case worse > bound:
		return "WORSE"
	case worse < -bound:
		return "better"
	}
	return ""
}

func incorrect(recs []record) int {
	n := 0
	for _, r := range recs {
		if !r.Correct {
			n++
		}
	}
	return n
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads a results file: one record per line, as --out writes.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
