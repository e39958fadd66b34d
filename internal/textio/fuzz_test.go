package textio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// readSeeds seed FuzzRead and FuzzReadDifferential.
var readSeeds = []string{
	exampleJSON,
	`{"queries": [["a"]], "uniform_cost": 1}`,
	`{"queries": [["a","b"],["b","c"]], "costs": {"a":1,"b":2,"c":3,"a|b":2,"b|c":2}}`,
	`{"queries": []}`,
	`{`,
	``,
	`{"queries": [["a|b"]]}`,
}

// FuzzRead checks that arbitrary input never panics the parser, and that
// anything it accepts survives a full round trip (build → serialize → parse
// → build) with the instance shape preserved.
func FuzzRead(f *testing.F) {
	for _, seed := range readSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		file, err := Read(strings.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		_, inst, err := file.Build(core.Options{})
		if err != nil {
			return // accepted file may still be unbuildable (e.g. huge query)
		}
		var buf bytes.Buffer
		back := FromInstance(inst)
		if err := Write(&buf, back); err != nil {
			t.Fatalf("Write failed on round trip: %v", err)
		}
		file2, err := Read(&buf)
		if err != nil {
			t.Fatalf("serialized file does not parse: %v", err)
		}
		_, inst2, err := file2.Build(core.Options{})
		if err != nil {
			t.Fatalf("round-tripped file does not build: %v", err)
		}
		if inst2.NumQueries() != inst.NumQueries() || inst2.NumClassifiers() != inst.NumClassifiers() {
			t.Fatalf("round trip changed shape: %d/%d → %d/%d",
				inst.NumQueries(), inst.NumClassifiers(), inst2.NumQueries(), inst2.NumClassifiers())
		}
	})
}
