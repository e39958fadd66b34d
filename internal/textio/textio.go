// Package textio reads and writes MC³ instances as JSON files, the exchange
// format of the command-line tools: queries are lists of property names, and
// classifier costs are keyed by the sorted property names joined with "|".
// Classifiers without a listed cost get the default cost (omit the default
// to make unlisted classifiers unavailable, mirroring the paper's treatment
// of infinite weights).
//
// # Input contract
//
// Read scans File's fixed schema by hand. It accepts the inputs that a
// reflective encoding/json decode into File with DisallowUnknownFields
// accepts, and returns the File that decode returns, with one exception:
//
//   - Field names match case-insensitively after unescaping, as
//     strings.EqualFold compares them; unknown fields are rejected.
//   - A top-level field given twice, names compared the same way, is
//     rejected. encoding/json merged the two; this is the exception.
//   - null for a whole field means absent, and {} or [] give empty, non-nil
//     values. Inside a field, a null query or name reads as empty, which
//     validation rejects, and a null cost or weight reads as 0.
//   - Numbers follow the JSON grammar and parse as strconv.ParseFloat(s, 64)
//     does; an out-of-range number is rejected.
//   - A string holding a backslash or a byte ≥ 0x80 is unquoted by
//     encoding/json, so escapes, surrogates and the U+FFFD replacement of
//     invalid UTF-8 are encoding/json's. A raw control byte is rejected.
//   - Bytes after the top-level object are not read.
//   - A reader error is returned wrapped with %w.
//
// Every string in the returned File is a copy, never a view of the input.
package textio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
)

// KeySep joins property names in cost keys.
const KeySep = "|"

// File is the JSON representation of an MC³ instance.
type File struct {
	// Queries lists the query load; each query is a list of property names.
	Queries [][]string `json:"queries"`
	// Costs prices classifiers, keyed by sorted property names joined with
	// KeySep.
	Costs map[string]float64 `json:"costs,omitempty"`
	// UniformCost, when set, prices every classifier identically and
	// overrides Costs/DefaultCost.
	UniformCost *float64 `json:"uniform_cost,omitempty"`
	// DefaultCost prices classifiers missing from Costs. Absent means
	// unlisted classifiers are unavailable.
	DefaultCost *float64 `json:"default_cost,omitempty"`
	// Weights optionally assigns an importance weight per query (parallel
	// to Queries), used by the budgeted partial-cover variant. Absent
	// means uniform weight 1.
	Weights []float64 `json:"weights,omitempty"`
}

// CostKey builds the canonical cost key for a set of property names.
func CostKey(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return strings.Join(sorted, KeySep)
}

// Read parses a File from JSON and validates it. It reads r up to the end
// of the first JSON value, through a fixed-size buffer; the package comment
// gives the inputs it accepts.
func Read(r io.Reader) (*File, error) {
	f, err := decode(r, window)
	if err != nil {
		return nil, err
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Write serializes a File as indented JSON.
func Write(w io.Writer, f *File) error {
	if err := f.validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

func (f *File) validate() error {
	if len(f.Queries) == 0 {
		return errNoQueries
	}
	for i, q := range f.Queries {
		if len(q) == 0 {
			return emptyQuery(i)
		}
		for _, name := range q {
			if err := checkName(i, name); err != nil {
				return err
			}
		}
	}
	for k, c := range f.Costs {
		if err := checkCost(k, c); err != nil {
			return err
		}
	}
	return checkScalars(f.UniformCost, f.DefaultCost, f.Weights, len(f.Queries))
}

var errNoQueries = errors.New("textio: file has no queries")

func emptyQuery(i int) error { return fmt.Errorf("textio: query %d is empty", i) }

// checkName reports why name, a property name of query i, is invalid, or
// returns nil.
func checkName[S string | []byte](i int, name S) error {
	if len(name) == 0 {
		return fmt.Errorf("textio: query %d has an empty property name", i)
	}
	for j := 0; j < len(name); j++ {
		if name[j] == KeySep[0] {
			return fmt.Errorf("textio: property name %q contains the reserved separator %q", name, KeySep)
		}
	}
	return nil
}

// checkCost reports why c, the price of cost key k, is invalid, or returns
// nil.
func checkCost(k string, c float64) error {
	if c < 0 || math.IsNaN(c) {
		return fmt.Errorf("textio: cost %v for %q is invalid", c, k)
	}
	return nil
}

// checkScalars checks the fields after queries and costs: the uniform and
// default costs, and the weights of a load of n queries.
func checkScalars(uniform, def *float64, weights []float64, n int) error {
	if uniform != nil && (*uniform < 0 || math.IsNaN(*uniform)) {
		return fmt.Errorf("textio: uniform cost %v is invalid", *uniform)
	}
	if def != nil && (*def < 0 || math.IsNaN(*def)) {
		return fmt.Errorf("textio: default cost %v is invalid", *def)
	}
	if weights != nil {
		if len(weights) != n {
			return fmt.Errorf("textio: %d weights for %d queries", len(weights), n)
		}
		for i, w := range weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("textio: weight %v for query %d is invalid", w, i)
			}
		}
	}
	return nil
}

// QueryWeights returns the per-query weights aligned with the instance
// built by Build: duplicates of a query merge by summing their weights, in
// first-occurrence order; absent Weights means uniform 1.
func (f *File) QueryWeights() []float64 {
	type slot struct {
		idx int
		w   float64
	}
	order := make(map[string]*slot, len(f.Queries))
	var out []float64
	u := core.NewUniverse()
	for i, q := range f.Queries {
		key := u.Set(q...).Key()
		w := 1.0
		if f.Weights != nil {
			w = f.Weights[i]
		}
		if s, ok := order[key]; ok {
			out[s.idx] += w
			continue
		}
		order[key] = &slot{idx: len(out)}
		out = append(out, w)
	}
	return out
}

// Build materializes the file as an MC³ instance. It rejects a File that
// validate rejects, with validate's error: it checks the names as it
// interns them and the prices as it lists them for pricing, in validate's
// order.
func (f *File) Build(opts core.Options) (*core.Universe, *core.Instance, error) {
	if len(f.Queries) == 0 {
		return nil, nil, errNoQueries
	}
	u := core.NewUniverse()
	queries := make([]core.PropSet, len(f.Queries))
	var ids []core.PropID
	for i, q := range f.Queries {
		if len(q) == 0 {
			return nil, nil, emptyQuery(i)
		}
		ids = ids[:0]
		for _, name := range q {
			if err := checkName(i, name); err != nil {
				return nil, nil, err
			}
			ids = append(ids, u.Intern(name))
		}
		queries[i] = core.NewPropSet(ids...)
	}
	cm, err := f.costModel(u)
	if err == nil {
		err = checkScalars(f.UniformCost, f.DefaultCost, f.Weights, len(f.Queries))
	}
	if err != nil {
		return nil, nil, err
	}

	inst, err := core.NewInstance(u, queries, cm, opts)
	if err != nil {
		return nil, nil, err
	}
	return u, inst, nil
}

// CostModelFor builds the file's cost model bound to u, interning every
// priced classifier's properties. Cost tables key on property IDs, so a
// model must be built against the universe it will be evaluated in —
// mc3serve's incremental sessions use this to price classifiers in a
// session-owned universe.
func (f *File) CostModelFor(u *core.Universe) core.CostModel {
	cm, _ := f.costModel(u)
	return cm
}

// costModel is CostModelFor, which also reports the first invalid price in
// the costs' order, as validate does. It walks the costs under a uniform
// cost as well, which prices none of them, so that validate's check holds.
func (f *File) costModel(u *core.Universe) (core.CostModel, error) {
	var err error
	entries := make([]costEntry, 0, len(f.Costs))
	for key, c := range f.Costs {
		if err == nil {
			err = checkCost(key, c)
		}
		entries = append(entries, costEntry{key, c})
	}
	if f.UniformCost != nil {
		return core.UniformCost(*f.UniformCost), err
	}
	return priceTable(u, defaultCost(f.DefaultCost), len(entries), func(i int) (string, float64) {
		return entries[i].key, entries[i].price
	}), err
}

// defaultCost is the price of classifiers the costs leave out: def, or +Inf
// (unavailable) when it is absent.
func defaultCost(def *float64) float64 {
	if def == nil {
		return math.Inf(1)
	}
	return *def
}

// costEntry is one cost key with its price.
type costEntry struct {
	key   string
	price float64
}

// costList returns entry i of a list of cost entries. A key may repeat,
// and then its last price counts, as it does in a File's map.
type costList func(i int) (key string, price float64)

// checkCosts reports an invalid price among the n entries as validate does
// for a File, naming the first such key in the list's order.
func checkCosts(n int, entry costList) error {
	valid := true
	for i := 0; i < n && valid; i++ {
		_, c := entry(i)
		valid = checkCost("", c) == nil
	}
	if valid {
		return nil
	}
	last := make(map[string]int, n) // each key's last entry, whose price counts
	for i := 0; i < n; i++ {
		key, _ := entry(i)
		last[key] = i
	}
	for i := 0; i < n; i++ {
		if key, c := entry(i); last[key] == i {
			if err := checkCost(key, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// priceTable prices the n entries of a cost list into a table bound to u,
// interning what their keys name. The table must come out as if the keys
// were interned in sorted order, names left to right within a key:
// interning assigns property IDs, and two processes building a model from
// the same file must end with identical universes for their solves to
// tie-break identically (the cluster differential depends on this), and of
// two keys naming one set the later in sorted order sets its price. When
// every key lists names u already holds, in strictly ascending order, no
// key interns a name and only equal keys name one set, so the list's own
// order, in which the last of equal keys comes last, gives the same
// universe and table. That holds for every file FromInstance writes, once
// its queries are interned. Walk in the list's order until a key breaks
// it.
func priceTable(u *core.Universe, def float64, n int, entry costList) *core.PriceTable {
	members := n
	for i := 0; i < n; i++ {
		key, _ := entry(i)
		members += strings.Count(key, KeySep)
	}
	t := core.NewPriceTable(def, n, members)
	var set core.PropSet // one key's properties, canonicalized in place
	put := func(c float64) {
		slices.Sort(set)
		t.Put(slices.Compact(set), c)
	}
	canonical := true
	for i := 0; i < n; i++ {
		key, c := entry(i)
		set = set[:0]
		prev := ""
		for rest, more := key, true; more; {
			var name string
			name, rest, more = strings.Cut(rest, KeySep)
			id, ok := u.Lookup(name)
			if canonical = ok && name > prev; !canonical {
				break
			}
			set, prev = append(set, id), name
		}
		if !canonical {
			break
		}
		put(c)
	}
	if canonical {
		return t
	}
	t = core.NewPriceTable(def, n, members)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int {
		a, _ := entry(i)
		b, _ := entry(j)
		return strings.Compare(a, b)
	})
	for _, i := range order {
		key, c := entry(i)
		set = set[:0]
		for rest, more := key, true; more; {
			var name string
			name, rest, more = strings.Cut(rest, KeySep)
			id, ok := u.Lookup(name)
			if !ok {
				id = u.Intern(strings.Clone(name)) // not a view of the whole key
			}
			set = append(set, id)
		}
		put(c)
	}
	return t
}

// FromInstance captures an instance back into the file format, with every
// classifier of C_Q priced explicitly.
func FromInstance(inst *core.Instance) *File {
	f := &File{Costs: make(map[string]float64, inst.NumClassifiers())}
	for qi := 0; qi < inst.NumQueries(); qi++ {
		f.Queries = append(f.Queries, inst.Universe.SetNames(inst.Query(qi)))
	}
	for id := 0; id < inst.NumClassifiers(); id++ {
		cid := core.ClassifierID(id)
		f.Costs[CostKey(inst.Universe.SetNames(inst.Classifier(cid)))] = inst.Cost(cid)
	}
	return f
}

// SolutionNames renders a solution as sorted lists of property names, one
// per selected classifier.
func SolutionNames(inst *core.Instance, sol *core.Solution) [][]string {
	out := make([][]string, 0, len(sol.Selected))
	for _, id := range sol.Selected {
		out = append(out, inst.Universe.SetNames(inst.Classifier(id)))
	}
	return out
}
