package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/incr"
)

// writeStream writes a delta stream to a temp file and returns its path.
func writeStream(t *testing.T, deltas []incr.Delta) string {
	t.Helper()
	var buf bytes.Buffer
	if err := incr.WriteDeltaStream(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stream.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// sparseStream builds several disjoint components up front, then touches only
// one of them: the incremental engine should re-solve a single dirty
// component per later batch.
func sparseStream(t *testing.T) string {
	t.Helper()
	deltas := []incr.Delta{
		{Time: 0, Op: incr.OpAdd, Props: []string{"a", "b"}},
		{Time: 0, Op: incr.OpAdd, Props: []string{"c", "d"}},
		{Time: 0, Op: incr.OpAdd, Props: []string{"e", "f"}},
		{Time: 0, Op: incr.OpAdd, Props: []string{"g", "h"}},
		{Time: 2, Op: incr.OpAdd, Props: []string{"a", "b"}},
		{Time: 4, Op: incr.OpUpdateCost, Props: []string{"a"}, Cost: 3},
		{Time: 6, Op: incr.OpAdd, Props: []string{"a"}},
		{Time: 8, Op: incr.OpRemove, Props: []string{"a", "b"}},
	}
	return writeStream(t, deltas)
}

func TestReplayTableOutput(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-stream", sparseStream(t), "-window", "1"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"incremental_seconds", "fromscratch_seconds", "dirty_components", "speedup", "batches"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}

func TestReplayJSONReportShowsLocality(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "BENCH_replay.json")
	var stdout bytes.Buffer
	err := run([]string{"-stream", sparseStream(t), "-window", "1",
		"-json", "-out", outPath, "-validate"}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Tool        string `json:"tool"`
		Experiments []struct {
			ID     string `json:"id"`
			Series []struct {
				Name   string     `json:"name"`
				Values []*float64 `json:"values"`
			} `json:"series"`
		} `json:"experiments"`
		TotalSeconds float64 `json:"total_seconds"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	if rep.Tool != "mc3replay" {
		t.Errorf("tool = %q, want mc3replay", rep.Tool)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "replay" {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	series := map[string][]*float64{}
	for _, s := range rep.Experiments[0].Series {
		series[s.Name] = s.Values
	}
	for _, name := range []string{"components", "dirty_components", "incremental_seconds", "fromscratch_seconds", "cost"} {
		if len(series[name]) == 0 {
			t.Fatalf("report lacks series %q", name)
		}
	}

	// On the sparse tail batches (single-component touches against a
	// multi-component load), dirty must stay below the component count.
	comps, dirty := series["components"], series["dirty_components"]
	sawLocality := false
	for i := range comps {
		if comps[i] == nil || dirty[i] == nil {
			t.Fatalf("batch %d: null component counts", i)
		}
		if *dirty[i] > *comps[i] {
			t.Errorf("batch %d: dirty %g > components %g", i, *dirty[i], *comps[i])
		}
		if *comps[i] > 1 && *dirty[i] < *comps[i] {
			sawLocality = true
		}
	}
	if !sawLocality {
		t.Error("no batch re-solved fewer components than the total: locality not demonstrated")
	}
	// Both timing series must be populated (baseline enabled by default).
	for i, v := range series["fromscratch_seconds"] {
		if v == nil {
			t.Errorf("batch %d: from-scratch timing missing", i)
		}
	}
}

func TestReplayWithLoadFile(t *testing.T) {
	dir := t.TempDir()
	loadPath := filepath.Join(dir, "inst.json")
	instance := `{
		"queries": [["team:juventus","color:white","brand:adidas"], ["team:chelsea","brand:adidas"]],
		"default_cost": 10,
		"costs": {
			"brand:adidas": 4, "color:white": 5, "team:chelsea": 7, "team:juventus": 6,
			"brand:adidas|color:white": 8, "brand:adidas|team:chelsea": 9
		}
	}`
	if err := os.WriteFile(loadPath, []byte(instance), 0o600); err != nil {
		t.Fatal(err)
	}
	stream := writeStream(t, []incr.Delta{
		{Time: 0, Op: incr.OpAdd, Props: []string{"color:white", "brand:adidas"}},
		{Time: 1, Op: incr.OpUpdateCost, Props: []string{"brand:adidas"}, Cost: 2},
		{Time: 2, Op: incr.OpRemove, Props: []string{"team:chelsea", "brand:adidas"}},
	})
	var out, errw bytes.Buffer
	err := run([]string{"-stream", stream, "-load", loadPath, "-algo", "general", "-validate"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "installed 2 initial queries") {
		t.Errorf("load note missing: %s", errw.String())
	}
}

func TestReplayParallelFlag(t *testing.T) {
	// The replay's built-in differential check (incremental vs from-scratch
	// per batch) runs under whatever -parallel selects, so a green run at
	// each setting is itself a cost-identity proof for the stream.
	for _, par := range []string{"1", "2", "-1"} {
		var out bytes.Buffer
		err := run([]string{"-stream", sparseStream(t), "-window", "1", "-parallel", par}, &out, io.Discard)
		if err != nil {
			t.Fatalf("-parallel %s: %v", par, err)
		}
	}
}

func TestReplayNoBaseline(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-stream", sparseStream(t), "-no-baseline"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "speedup") {
		t.Errorf("summary reports a speedup without a baseline:\n%s", out.String())
	}
}

func TestReplayErrors(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# nothing\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("1 rm ghost\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                               // -stream required
		{"-stream", "/nonexistent"},      // unreadable stream
		{"-stream", empty},               // no events
		{"-stream", bad},                 // remove of an absent query
		{"-stream", bad, "-window", "0"}, // bad window
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// clusterBundle writes a small two-session bundle to a temp file.
func clusterBundle(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	err := incr.WriteSessionBundle(&buf, []incr.SessionStream{
		{Name: "s1", Deltas: []incr.Delta{
			{Time: 0, Op: incr.OpAdd, Props: []string{"a", "b"}},
			{Time: 0, Op: incr.OpAdd, Props: []string{"c", "d"}},
			{Time: 2, Op: incr.OpAdd, Props: []string{"a", "b"}},
			{Time: 4, Op: incr.OpUpdateCost, Props: []string{"a"}, Cost: 3},
			{Time: 6, Op: incr.OpRemove, Props: []string{"a", "b"}},
		}},
		{Name: "s2", Deltas: []incr.Delta{
			{Time: 0, Op: incr.OpAdd, Props: []string{"x", "y"}},
			{Time: 2, Op: incr.OpAdd, Props: []string{"y", "z"}},
			{Time: 4, Op: incr.OpRemove, Props: []string{"x", "y"}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bundle.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayClusterMode drives the -cluster CLI end to end: in-process
// harness (router + 2 shards), per-batch differential, JSON report with the
// cluster_replay table.
func TestReplayClusterMode(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "BENCH_cluster.json")
	var stdout bytes.Buffer
	err := run([]string{"-cluster", "-stream", clusterBundle(t), "-shards", "2",
		"-window", "1", "-json", "-out", outPath}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Experiments []struct {
			ID     string `json:"id"`
			Series []struct {
				Name   string    `json:"name"`
				Values []float64 `json:"values"`
			} `json:"series"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "cluster_replay" {
		t.Fatalf("report experiments = %+v, want one cluster_replay table", rep.Experiments)
	}
	var hasCost bool
	for _, s := range rep.Experiments[0].Series {
		if s.Name == "cost" && len(s.Values) > 0 {
			hasCost = true
		}
	}
	if !hasCost {
		t.Fatalf("cluster_replay table lacks a populated cost series: %s", raw)
	}
}

// TestReplayClusterTextOutput: -cluster without -json renders the table and
// the differential summary goes to stderr.
func TestReplayClusterTextOutput(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-cluster", "-stream", clusterBundle(t), "-shards", "2"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cluster replay") {
		t.Errorf("text output lacks the cluster table:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "differential clean") {
		t.Errorf("stderr lacks the differential summary:\n%s", errw.String())
	}
}
