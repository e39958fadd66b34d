package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestBenchQuickSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "table1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"table1", "bestbuy", "private", "synthetic"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestBenchMultipleExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "fig3a,fig3b"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "fig3a") || !strings.Contains(s, "fig3b") {
		t.Error("selected experiments missing from output")
	}
	if strings.Contains(s, "fig3c") {
		t.Error("unselected experiment present")
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "nope"}, &out, io.Discard); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestBenchDedupSelection(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "table1,table1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "== table1") != 1 {
		t.Error("duplicate experiment selection must run once")
	}
}

func TestBenchCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "table1", "-format", "csv"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "dataset,queries,max-cost") {
		t.Errorf("CSV header missing:\n%s", s)
	}
	if !strings.Contains(s, "bestbuy,1000,1") {
		t.Errorf("CSV row missing:\n%s", s)
	}
	if err := run([]string{"-format", "nope"}, &out, io.Discard); err == nil {
		t.Error("unknown format must fail")
	}
}

func TestBenchMultiSeed(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "fig3a", "-seeds", "2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mean of 2 seeds") {
		t.Errorf("multi-seed title missing:\n%s", out.String())
	}
}

// TestBenchAblationMultiSeed: a single ablation is selectable by its ID and
// averaged over -seeds like every other experiment.
func TestBenchAblationMultiSeed(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "ablation-wsc", "-seeds", "2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== ablation-wsc:") || !strings.Contains(out.String(), "(mean of 2 seeds)") {
		t.Errorf("ablation-wsc multi-seed title missing:\n%s", out.String())
	}
}

func TestBenchRejectsRemovedFlags(t *testing.T) {
	for _, args := range [][]string{{"-gap", "0.1"}, {"-sample", "64"}} {
		if err := run(args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: got %v, want an unknown-flag error", args, err)
		}
	}
}
