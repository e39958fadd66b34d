package textio

import (
	"io"
	"slices"
	"strings"

	"repro/internal/core"
)

// ReadLoad reads an instance from r, accepting exactly the inputs Read
// accepts, and returns what Build hands to core.NewInstance for them: a
// fresh universe, the queries interned into it, and the cost model
// CostModelFor builds. It builds no File and no string-keyed map: query
// names are interned as they are scanned, into one member array the
// queries share, and cost keys are collected in one byte arena and priced
// once the object is read, so costs given before the queries still intern
// in Build's order. Weights are checked, not returned.
func ReadLoad(r io.Reader) (*core.Universe, []core.PropSet, core.CostModel, error) {
	return readLoad(r, window)
}

// loadNames is the number of property names readLoad's universe has room
// for before it grows: a /solve body of a few hundred Private queries names
// several hundred properties.
const loadNames = 1024

// readLoad is ReadLoad through a buffer of size win.
func readLoad(r io.Reader, win int) (*core.Universe, []core.PropSet, core.CostModel, error) {
	d := &decoder{r: r, buf: make([]byte, win)}
	u := core.NewSizedUniverse(loadNames)
	var (
		ids          []core.PropID   // the queries' members, back to back
		starts       []int           // query i's members start at ids[starts[i]]
		invalid      error           // the first invalid query, as validate words it
		keys         strings.Builder // the cost keys, back to back
		ends         []int           // cost key i ends at byte ends[i] of keys
		prices       []float64
		uniform, def *float64
		weights      []float64
	)
	// endQuery canonicalizes the last query's members in place.
	endQuery := func() {
		if len(starts) == 0 {
			return
		}
		lo := starts[len(starts)-1]
		if lo == len(ids) && invalid == nil {
			invalid = emptyQuery(len(starts) - 1)
		}
		slices.Sort(ids[lo:])
		ids = ids[:lo+len(slices.Compact(ids[lo:]))]
	}
	err := d.fields(func(field int) (err error) {
		switch field {
		case fieldQueries:
			_, err = d.queries(func(bool) {
				endQuery()
				starts = append(starts, len(ids))
			}, func(name []byte) {
				if invalid == nil {
					invalid = checkName(len(starts)-1, name)
				}
				ids = append(ids, u.InternBytes(name))
			})
			endQuery()
		case fieldCosts:
			_, err = d.costs(func(key []byte, price float64) {
				if keys.Cap()-keys.Len() < len(key) {
					keys.Grow(max(len(key), keys.Len())) // at least double, as grow does
				}
				keys.Write(key)
				ends = append(grow(ends, 1), keys.Len())
				prices = append(grow(prices, 1), price)
			})
		case fieldUniformCost:
			uniform, err = d.optNumber()
		case fieldDefaultCost:
			def, err = d.optNumber()
		case fieldWeights:
			weights, err = d.weights()
		}
		return err
	})
	if err == nil && len(starts) == 0 {
		err = errNoQueries
	}
	if err == nil {
		err = invalid
	}
	arena := keys.String()
	cost := func(i int) (string, float64) {
		lo := 0
		if i > 0 {
			lo = ends[i-1]
		}
		return arena[lo:ends[i]], prices[i]
	}
	if err == nil {
		err = checkCosts(len(prices), cost)
	}
	if err == nil {
		err = checkScalars(uniform, def, weights, len(starts))
	}
	if err != nil {
		return nil, nil, nil, err
	}
	queries := make([]core.PropSet, len(starts))
	for i, lo := range starts {
		hi := len(ids)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		queries[i] = ids[lo:hi:hi]
	}
	if uniform != nil {
		return u, queries, core.UniformCost(*uniform), nil
	}
	return u, queries, priceTable(u, defaultCost(def), len(prices), cost), nil
}
