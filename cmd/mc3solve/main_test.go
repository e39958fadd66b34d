package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const exampleJSON = `{
  "queries": [
    ["team:juventus", "color:white", "brand:adidas"],
    ["team:chelsea", "brand:adidas"]
  ],
  "costs": {
    "team:chelsea": 5, "brand:adidas": 5, "team:juventus": 5, "color:white": 1,
    "brand:adidas|team:chelsea": 3, "brand:adidas|color:white": 5,
    "brand:adidas|team:juventus": 3, "color:white|team:juventus": 4,
    "brand:adidas|color:white|team:juventus": 5
  }
}`

func writeExample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := os.WriteFile(path, []byte(exampleJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSolveQuiet(t *testing.T) {
	path := writeExample(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "7" {
		t.Errorf("quiet output = %q, want 7 (the paper's optimum)", got)
	}
}

func TestSolveVerbose(t *testing.T) {
	path := writeExample(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "exact"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"2 queries", "total construction cost: 7", "classifiers selected: 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestSolveAllAlgorithms(t *testing.T) {
	path := writeExample(t)
	for _, algo := range []string{"auto", "general", "short-first", "exact", "local-greedy", "property-oriented", "query-oriented"} {
		var out bytes.Buffer
		if err := run([]string{"-in", path, "-algo", algo, "-quiet"}, &out); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
	// ktwo and mixed must reject the k=3 instance.
	for _, algo := range []string{"ktwo", "mixed"} {
		var out bytes.Buffer
		if err := run([]string{"-in", path, "-algo", algo}, &out); err == nil {
			t.Errorf("algo %s must reject a k=3 instance", algo)
		}
	}
}

func TestSolveOptionCombinations(t *testing.T) {
	path := writeExample(t)
	for _, args := range [][]string{
		{"-in", path, "-wsc", "greedy", "-quiet"},
		{"-in", path, "-wsc", "primal-dual", "-quiet"},
		{"-in", path, "-wsc", "lp-rounding", "-quiet"},
		{"-in", path, "-wsc", "auto-lp", "-quiet"},
		{"-in", path, "-prep", "minimal", "-quiet"},
		{"-in", path, "-parallel", "4", "-quiet"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	path := writeExample(t)
	for _, args := range [][]string{
		{},
		{"-in", "/nonexistent/file.json"},
		{"-in", path, "-algo", "nope"},
		{"-in", path, "-wsc", "nope"},
		{"-in", path, "-prep", "nope"},
		{"-in", path, "-engine", "nope"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestSolveBadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-in", path}, &out); err == nil {
		t.Error("malformed JSON must fail")
	}
}

func TestSolveJSONOutput(t *testing.T) {
	path := writeExample(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cost        float64    `json:"cost"`
		Classifiers [][]string `json:"classifiers"`
		Queries     int        `json:"queries"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Cost != 7 || doc.Queries != 2 || len(doc.Classifiers) != 3 {
		t.Errorf("JSON doc = %+v", doc)
	}
}

func TestSolveAnalyze(t *testing.T) {
	path := writeExample(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-analyze"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"queries: 2", "incidence I = 2", "guarantee", "preprocessing:", "components"} {
		if !strings.Contains(s, want) {
			t.Errorf("analyze output missing %q:\n%s", want, s)
		}
	}
}

func TestSolveBudgetedCLI(t *testing.T) {
	path := writeExample(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-budget", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// Budget 3 affords only AC → 1 of 2 queries.
	if !strings.Contains(s, "covered 1/2 queries") {
		t.Errorf("budgeted output wrong:\n%s", s)
	}
	out.Reset()
	if err := run([]string{"-in", path, "-budget", "100"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "covered 2/2 queries") {
		t.Errorf("generous budget must cover all:\n%s", out.String())
	}
}

func TestSolveExplain(t *testing.T) {
	path := writeExample(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "exact", "-explain"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "is answered by") {
		t.Errorf("explain output missing:\n%s", out.String())
	}
}

// TestSolveRejectsFlagsTheModeIgnores: every mode fails on a flag it never
// reads instead of silently dropping it, naming the flags and the mode; the
// output formats -quiet and -json refuse -stats, -explain and each other.
func TestSolveRejectsFlagsTheModeIgnores(t *testing.T) {
	path := writeExample(t)
	logPath := filepath.Join(t.TempDir(), "q.log")
	if err := os.WriteFile(logPath, []byte("a,b\nb,c\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-stream", logPath, "-algo", "ktwo", "-json", "-budget", "5", "-explain", "-analyze"},
			"-stream mode ignores -algo, -analyze, -budget, -explain, -json"},
		{[]string{"-in", path, "-seal-window", "10", "-ambient", "2", "-allow-reopen", "-cost", "synthetic:9"},
			"solve mode ignores -allow-reopen, -ambient, -cost, -seal-window"},
		{[]string{"-in", path, "-analyze", "-algo", "exact", "-prep", "minimal"}, "-analyze mode ignores -algo, -prep"},
		{[]string{"-in", path, "-analyze", "-budget", "3"}, "-analyze mode ignores -budget"},
		{[]string{"-in", path, "-budget", "3", "-stats", "-timeout", "1s"}, "-budget mode ignores -stats, -timeout"},
		{[]string{"-in", path, "-budget", "3", "-json"}, "-budget mode ignores -json"},
		{[]string{"-in", path, "-quiet", "-stats", "-explain"}, "solve -quiet mode ignores -explain, -stats"},
		{[]string{"-in", path, "-json", "-explain", "-stats"}, "solve -json mode ignores -explain, -stats"},
		{[]string{"-in", path, "-json", "-quiet"}, "solve -quiet mode ignores -json"},
		{[]string{"-stream", logPath, "-quiet", "-stats"}, "-stream -quiet mode ignores -stats"},
		{[]string{"-stream", logPath, "-cost", "uniform:2", "-seal-window", "1", "-parallel", "-1", "-stats"}, ""},
		{[]string{"-stream", logPath, "-quiet", "-timeout", "1m"}, ""},
		{[]string{"-in", path, "-json", "-algo", "general", "-timeout", "1m"}, ""},
		{[]string{"-in", path, "-quiet", "-wsc", "greedy"}, ""},
		{[]string{"-in", path, "-analyze", "-spans", spans}, ""},
		{[]string{"-in", path, "-budget", "3"}, ""},
		{[]string{"-in", path, "-algo", "exact", "-explain", "-timeout", "1m", "-stats"}, ""},
	} {
		err := run(tc.args, &bytes.Buffer{})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%v: got %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestSolveRejectsRemovedFlags(t *testing.T) {
	path := writeExample(t)
	for _, flag := range []string{"-gap", "-sample"} {
		err := run([]string{"-in", path, flag, "1"}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: got %v, want an unknown-flag error", flag, err)
		}
	}
}
