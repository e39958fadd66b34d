package main

import (
	"io"
	"strings"
	"testing"
)

// TestServeRejectsRemovedFlags checks that the flag of the removed cache
// cost quantum is refused while parsing, before anything listens.
func TestServeRejectsRemovedFlags(t *testing.T) {
	err := run([]string{"-addr", "localhost:0", "-cache-quantum", "0.1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-cache-quantum: got %v, want an unknown-flag error", err)
	}
}
