package main

import (
	"bytes"
	"testing"

	"spectrebench/internal/harness"
)

// TestOptimizeRejectsNegativeCombos: `-combos -1 optimize` is a usage
// error (exit 2, nothing on stdout) rather than a silent full-lattice
// search — the CLI twin of /optimize's 400 for combos < 0. The check
// runs before any search, so no cell is submitted.
func TestOptimizeRejectsNegativeCombos(t *testing.T) {
	cfg := withEngine(t, harness.RunConfig{})
	var buf bytes.Buffer
	if code := optimizeCmd(&buf, optimizeOptions{require: "default", combos: -1, cfg: cfg}); code != 2 {
		t.Fatalf("optimize -combos -1 returned %d, want 2", code)
	}
	if buf.Len() != 0 {
		t.Errorf("stdout carries %q, want nothing", buf.String())
	}
	if d := cfg.Engine.StatsDetail(); d.Misses != 0 || d.Hits != 0 {
		t.Errorf("a rejected search submitted cells: %+v", d)
	}
}
