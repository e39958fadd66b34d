// Package core defines the data model for the MC³ problem
// (Minimization of Classifier Construction Cost for Search Queries,
// SIGMOD 2020): properties, queries, classifiers, problem instances,
// solutions, and the instance parameters (incidence, frequency, degree)
// used by the paper's approximation analysis.
//
// Properties are interned strings. Queries and classifiers are canonical
// sorted sets of property IDs. An Instance materializes the classifier
// universe C_Q — every non-empty subset of every query that the cost model
// prices below +Inf — exactly as defined in Section 2.1 of the paper.
package core

import (
	"fmt"
	"sort"
)

// PropID is a dense identifier for an interned property.
type PropID int32

// Universe interns property names to dense PropIDs. The zero value is not
// usable; create one with NewUniverse.
type Universe struct {
	names []string
	ids   map[string]PropID
}

// NewUniverse returns an empty property universe.
func NewUniverse() *Universe {
	return &Universe{ids: make(map[string]PropID)}
}

// NewSizedUniverse returns an empty property universe with room for n names
// before it grows.
func NewSizedUniverse(n int) *Universe {
	return &Universe{names: make([]string, 0, n), ids: make(map[string]PropID, n)}
}

// Intern returns the PropID for name, assigning a fresh ID on first use.
func (u *Universe) Intern(name string) PropID {
	if id, ok := u.ids[name]; ok {
		return id
	}
	id := PropID(len(u.names))
	u.names = append(u.names, name)
	u.ids[name] = id
	return id
}

// InternBytes is Intern for a name held as bytes; it copies the name only
// on first use.
func (u *Universe) InternBytes(name []byte) PropID {
	if id, ok := u.ids[string(name)]; ok {
		return id
	}
	return u.Intern(string(name))
}

// Lookup returns the PropID for name and whether it has been interned.
func (u *Universe) Lookup(name string) (PropID, bool) {
	id, ok := u.ids[name]
	return id, ok
}

// Name returns the property name for id. It panics if id was never assigned.
func (u *Universe) Name(id PropID) string {
	if id < 0 || int(id) >= len(u.names) {
		panic(fmt.Sprintf("core: PropID %d out of range [0,%d)", id, len(u.names)))
	}
	return u.names[id]
}

// Size returns the number of interned properties.
func (u *Universe) Size() int { return len(u.names) }

// Names returns the names of all interned properties in ID order.
// The returned slice is a copy.
func (u *Universe) Names() []string {
	out := make([]string, len(u.names))
	copy(out, u.names)
	return out
}

// Set interns all names and returns them as a canonical PropSet.
func (u *Universe) Set(names ...string) PropSet {
	ids := make([]PropID, len(names))
	for i, n := range names {
		ids[i] = u.Intern(n)
	}
	return NewPropSet(ids...)
}

// SetNames maps a PropSet back to sorted property names.
func (u *Universe) SetNames(s PropSet) []string {
	out := make([]string, len(s))
	for i, id := range s {
		out[i] = u.Name(id)
	}
	sort.Strings(out)
	return out
}
