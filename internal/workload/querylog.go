package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// maxLogLine is the longest query-log line the parsers accept, in bytes.
const maxLogLine = 1 << 20

// ParseQueryLog reads a plain-text query log: one query per line, property
// names separated by commas, blank lines and "#" comments ignored. This is
// the on-ramp for real curated query sets like the ones the paper's private
// dataset was built from (it "consists of 10,000 popular queries" derived
// from user sessions).
//
// Logs exported from other systems arrive messy, so parsing is tolerant
// where tolerance is safe and strict where it is not: CRLF line endings and
// whitespace padding around property names are accepted, a property repeated
// within one line collapses to a single occurrence, but an empty property
// name, a query whose distinct properties exceed core.MaxEnumQueryLen
// (the classifier universe would have 2^L−1 members) or a line longer than
// 1 MiB is rejected with the offending line number.
//
// Properties are interned into u; queries are returned in file order,
// duplicates included (instance construction merges them).
func ParseQueryLog(r io.Reader, u *core.Universe) ([]core.PropSet, error) {
	var queries []core.PropSet
	err := ParseQueryLogFunc(r, u, func(q core.PropSet) error {
		queries = append(queries, q)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return queries, nil
}

// ParseQueryLogFunc is the streaming form of ParseQueryLog: fn is called once
// per query, in file order, and the log is never materialized as a slice —
// the on-ramp for loads too large to hold in memory (pair it with
// core.StreamingBuilder / solver.SolveStream). Parsing semantics are
// identical to ParseQueryLog; an error returned by fn aborts the scan and is
// returned verbatim. The PropSet passed to fn is freshly allocated and may be
// retained.
func ParseQueryLogFunc(r io.Reader, u *core.Universe, fn func(core.PropSet) error) error {
	if u == nil {
		return fmt.Errorf("workload: nil universe")
	}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), maxLogLine)
	lineNo := 0
	n := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSuffix(scanner.Text(), "\r")
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.Split(line, ",")
		ids := make([]core.PropID, 0, len(parts))
		for _, p := range parts {
			p = strings.TrimSpace(p)
			if p == "" {
				return fmt.Errorf("workload: line %d: empty property name", lineNo)
			}
			ids = append(ids, u.Intern(p))
		}
		q := core.NewPropSet(ids...) // sorts and drops in-line duplicates
		if q.Len() > core.MaxEnumQueryLen {
			return fmt.Errorf("workload: line %d: query has %d distinct properties, enumeration limit is %d",
				lineNo, q.Len(), core.MaxEnumQueryLen)
		}
		if err := fn(q); err != nil {
			return err
		}
		n++
	}
	if err := scanner.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner stops at the line it cannot hold, the one after
			// the last it returned.
			return fmt.Errorf("workload: line %d: longer than %d bytes: %w", lineNo+1, maxLogLine, err)
		}
		return fmt.Errorf("workload: reading query log: %w", err)
	}
	if n == 0 {
		return fmt.Errorf("workload: query log contains no queries")
	}
	return nil
}

// DatasetFromLog wraps a parsed query log and a cost model as a Dataset, so
// real logs plug into the same subsetting/filtering/benchmark machinery as
// the generated datasets.
func DatasetFromLog(name string, r io.Reader, cm core.CostModel) (*Dataset, error) {
	u := core.NewUniverse()
	queries, err := ParseQueryLog(r, u)
	if err != nil {
		return nil, err
	}
	maxCost := 0.0
	if uc, ok := cm.(core.UniformCost); ok {
		maxCost = float64(uc)
	}
	return &Dataset{
		Name:     name,
		Universe: u,
		Queries:  queries,
		Costs:    cm,
		MaxCost:  maxCost,
	}, nil
}
