package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSolveWithSpans runs a solve with the JSONL trace sink and checks the
// span file holds a well-formed trace: a solve root with prep under it.
func TestSolveWithSpans(t *testing.T) {
	path := writeExample(t)
	spanPath := filepath.Join(t.TempDir(), "spans.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "general", "-spans", spanPath, "-stats"}, &out); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type span struct {
		Name   string `json:"name"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Nanos  int64  `json:"ns"`
	}
	byName := map[string][]span{}
	ids := map[uint64]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
		ids[sp.ID] = sp
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	solves := byName["solve"]
	if len(solves) != 1 {
		t.Fatalf("got %d solve spans, want 1 (trace: %v)", len(solves), byName)
	}
	if solves[0].Parent != 0 {
		t.Errorf("solve span has parent %d, want root", solves[0].Parent)
	}
	preps := byName["prep"]
	if len(preps) != 1 {
		t.Fatalf("got %d prep spans, want 1", len(preps))
	}
	if preps[0].Parent != solves[0].ID {
		t.Errorf("prep parent = %d, want solve id %d", preps[0].Parent, solves[0].ID)
	}
	if len(byName["prep.step"]) == 0 {
		t.Error("no prep.step spans")
	}
	for name, spans := range byName {
		for _, sp := range spans {
			if sp.Nanos < 0 {
				t.Errorf("%s span %d has negative duration", name, sp.ID)
			}
			if sp.Parent != 0 {
				if _, ok := ids[sp.Parent]; !ok {
					t.Errorf("%s span %d has unknown parent %d", name, sp.ID, sp.Parent)
				}
			}
		}
	}
}

// TestSolveWithDebugServer checks -debug-addr boots and shuts down cleanly
// around a solve.
func TestSolveWithDebugServer(t *testing.T) {
	path := writeExample(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-quiet", "-debug-addr", "localhost:0"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "7" {
		t.Errorf("quiet output = %q, want 7", got)
	}
}

// TestSolveWithProfiles checks the pprof flags produce non-empty profiles.
func TestSolveWithProfiles(t *testing.T) {
	path := writeExample(t)
	dir := t.TempDir()
	cpu, mem, tr := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"), filepath.Join(dir, "trace.out")
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-quiet", "-cpuprofile", cpu, "-memprofile", mem, "-trace", tr}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, tr} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("%s not written: %v", p, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	// An unwritable profile path must surface as an error.
	if err := run([]string{"-in", path, "-quiet", "-cpuprofile", filepath.Join(dir, "no/such/dir/x.prof")}, &out); err == nil {
		t.Error("unwritable -cpuprofile must fail")
	}
}
