package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/textio"
)

func TestGenSynthetic(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-dataset", "synthetic", "-n", "200", "-seed", "3"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	f, err := textio.Read(&out)
	if err != nil {
		t.Fatalf("generated output is not a valid instance file: %v", err)
	}
	if len(f.Queries) == 0 {
		t.Error("no queries generated")
	}
	if !strings.Contains(errw.String(), "synthetic") {
		t.Error("progress note missing")
	}
}

func TestGenBestBuyShort(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "bestbuy", "-short"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := textio.Read(&out)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range f.Queries {
		if len(q) > 2 {
			t.Fatal("-short output contains a long query")
		}
	}
}

func TestGenPrivateCategory(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "private", "-category", "fashion", "-subset", "100"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := textio.Read(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Queries) == 0 || len(f.Queries) > 100 {
		t.Errorf("subset size = %d", len(f.Queries))
	}
}

func TestGenRoundTripSolvable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "synthetic-k2", "-n", "150", "-seed", "5"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := textio.Read(&out)
	if err != nil {
		t.Fatal(err)
	}
	_, inst, err := f.Build(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumQueries() == 0 {
		t.Error("empty instance")
	}
}

func TestGenErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "nope"},
		{"-dataset", "synthetic", "-category", "fashion"},
		{"-dataset", "private", "-category", "nope"},
	} {
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestGenDeltasRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "synthetic-k2", "-n", "40", "-seed", "7",
		"-deltas", "-delta-events", "60"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	stream, err := incr.ReadDeltaStream(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("generated stream does not parse back: %v", err)
	}
	if len(stream) != 60 {
		t.Fatalf("parsed %d events, want 60", len(stream))
	}
	var adds, removes, reprices int
	for i, d := range stream {
		if i > 0 && d.Time < stream[i-1].Time {
			t.Fatalf("event %d: time %g before predecessor %g", i, d.Time, stream[i-1].Time)
		}
		switch d.Op {
		case incr.OpAdd:
			adds++
		case incr.OpRemove:
			removes++
		case incr.OpUpdateCost:
			reprices++
			if d.Cost <= 0 {
				t.Fatalf("event %d: re-pricing with cost %g", i, d.Cost)
			}
		}
	}
	if adds == 0 {
		t.Error("stream has no adds")
	}
	if removes+reprices == 0 {
		t.Error("stream has neither removes nor re-pricings")
	}

	// Same seed, same stream: generation must be deterministic.
	var again bytes.Buffer
	if err := run([]string{"-dataset", "synthetic-k2", "-n", "40", "-seed", "7",
		"-deltas", "-delta-events", "60"}, &again, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Error("same seed produced a different stream")
	}
}

func TestGenDeltasErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "synthetic", "-n", "10", "-deltas", "-delta-events", "0"},
		{"-dataset", "synthetic", "-n", "10", "-deltas", "-delta-rate", "-1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestGenFromQueryLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "q.log")
	if err := os.WriteFile(logPath, []byte("a,b\nb,c\n# comment\nc\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-log", logPath, "-log-cost", "2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := textio.Read(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Queries) != 3 {
		t.Errorf("queries = %d, want 3", len(f.Queries))
	}
	if err := run([]string{"-log", "/nonexistent.log"}, &out, io.Discard); err == nil {
		t.Error("missing log file must fail")
	}
}

// TestSessionBundleDeterministic: identical -sessions invocations emit
// byte-identical bundles, different seeds differ, and the bundle parses
// into the requested session count.
func TestSessionBundleDeterministic(t *testing.T) {
	gen := func(seed string) string {
		var out bytes.Buffer
		args := []string{"-dataset", "synthetic", "-n", "60", "-deltas",
			"-delta-events", "80", "-sessions", "3", "-seed", seed}
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a, b := gen("7"), gen("7")
	if a != b {
		t.Fatal("same flags produced different bundles")
	}
	if c := gen("8"); c == a {
		t.Fatal("different seeds produced identical bundles")
	}

	sessions, err := incr.ReadSessionBundle(strings.NewReader(a))
	if err != nil {
		t.Fatalf("generated bundle does not parse: %v", err)
	}
	if len(sessions) != 3 {
		t.Fatalf("bundle has %d sessions, want 3", len(sessions))
	}
	for _, ss := range sessions {
		if len(ss.Deltas) != 80 {
			t.Errorf("session %s has %d deltas, want 80", ss.Name, len(ss.Deltas))
		}
	}
}

func TestSessionsRequiresDeltas(t *testing.T) {
	if err := run([]string{"-dataset", "synthetic", "-sessions", "2"}, io.Discard, io.Discard); err == nil {
		t.Fatal("-sessions without -deltas accepted")
	}
}

// TestGenRejectsFlagsTheModeIgnores: every mode fails on a flag it never
// reads instead of silently dropping it, naming the flags and the mode; -n
// sizes only the synthetic datasets.
func TestGenRejectsFlagsTheModeIgnores(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "q.log")
	if err := os.WriteFile(logPath, []byte("a,b\nb,c\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-log", logPath, "-deltas"}, "-log mode ignores -deltas"},
		{[]string{"-log", logPath, "-dataset", "bestbuy", "-n", "5"}, "-log mode ignores -dataset, -n"},
		{[]string{"-stream", "-n", "50", "-deltas", "-subset", "5"}, "-stream mode ignores -deltas, -subset"},
		{[]string{"-dataset", "synthetic", "-n", "10", "-queries", "5", "-partitions", "2"}, "instance mode ignores -partitions, -queries"},
		{[]string{"-dataset", "synthetic", "-n", "10", "-sessions", "2"}, "instance mode ignores -sessions"},
		{[]string{"-dataset", "synthetic", "-n", "10", "-deltas", "-subset", "5", "-log-cost", "2"}, "-deltas mode ignores -log-cost, -subset"},
		{[]string{"-dataset", "bestbuy", "-n", "5"}, "instance -dataset bestbuy mode ignores -n"},
		{[]string{"-dataset", "private", "-n", "5", "-subset", "5"}, "instance -dataset private mode ignores -n"},
		{[]string{"-dataset", "private", "-deltas", "-n", "5", "-delta-events", "5"}, "-deltas -dataset private mode ignores -n"},
		{[]string{"-dataset", "bestbuy", "-deltas", "-n", "5", "-subset", "5"}, "-deltas -dataset bestbuy mode ignores -n, -subset"},
		{[]string{"-dataset", "bestbuy", "-subset", "5"}, ""},
		{[]string{"-dataset", "synthetic-k2", "-n", "10", "-deltas", "-delta-events", "5"}, ""},
		{[]string{"-log", logPath, "-log-cost", "2", "-subset", "1", "-seed", "3"}, ""},
		{[]string{"-stream", "-queries", "40", "-partitions", "2", "-dataset", "synthetic"}, ""},
		{[]string{"-dataset", "private", "-category", "fashion", "-short", "-deltas", "-delta-events", "5", "-delta-rate", "2", "-sessions", "2"}, ""},
		{[]string{"-dataset", "synthetic", "-n", "10", "-subset", "5", "-short"}, ""},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%v: got %v, want %q", tc.args, err, tc.want)
		}
	}
}
