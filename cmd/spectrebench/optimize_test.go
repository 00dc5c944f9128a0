package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"path/filepath"
	"strings"
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

// optimizeCases are the optimize invocations pinned in
// testdata/optimize.md5, as flags and as the options main builds from
// them.
var optimizeCases = []struct {
	args string
	opts optimizeOptions
}{
	{"optimize", optimizeOptions{}},
	{"-v optimize", optimizeOptions{verbose: true}},
	{"-faults -seed 7 optimize", optimizeOptions{cfg: harness.RunConfig{Seed: 7, Faults: true}}},
	{"-combos 3000 -uarch Zen,Broadwell -workloads getpid,read-small optimize",
		optimizeOptions{combos: 3000, uarchs: "Zen,Broadwell", workloads: "getpid,read-small"}},
}

// TestOptimizeGolden pins the optimize stdout to the md5 sums in
// testdata/optimize.md5 with no store, a cold store and a warm store.
// The cold pass prints what the storeless pass prints; the warm pass
// differs only in its engine line (every cell replayed), so it has a
// line of its own, labelled "-store DIR <args> (warm)". Each pass gets
// its own engine, as each CLI process does.
func TestOptimizeGolden(t *testing.T) {
	want := readMD5s(t, filepath.Join("testdata", "optimize.md5"))
	for _, tc := range optimizeCases {
		dir := t.TempDir()
		for _, pass := range []struct{ store, label string }{
			{"", tc.args},
			{dir, tc.args},
			{dir, "-store DIR " + tc.args + " (warm)"},
		} {
			sum, ok := want[pass.label]
			if !ok {
				t.Fatalf("testdata/optimize.md5 has no line for %q", pass.label)
			}
			opts := tc.opts
			opts.require = "default"
			opts.cfg.Seed = max(opts.cfg.Seed, 1) // the -seed default
			opts.cfg = withEngine(t, opts.cfg)
			opts.storeDir = pass.store
			var buf bytes.Buffer
			var code int
			stderr := captureStderr(t, func() { code = optimizeCmd(&buf, opts) })
			if code != 0 {
				t.Fatalf("%s (store %q): exit %d\n%s", tc.args, pass.store, code, stderr)
			}
			if got := md5.Sum(buf.Bytes()); hex.EncodeToString(got[:]) != sum {
				t.Errorf("%s (store %q): md5 %x, want %s\n%s", tc.args, pass.store, got, sum, buf.String())
			}
		}
	}
}

// TestOptimizeDedupesUarchsAndWorkloads: naming a uarch twice, or one
// workload under its full name and its shorthand, searches each once —
// one Zen row, one per-workload cost, one uarch's worth of combos — as
// if each had been named once.
func TestOptimizeDedupesUarchsAndWorkloads(t *testing.T) {
	runOpt := func(uarchs, workloads string) string {
		var buf bytes.Buffer
		opts := optimizeOptions{require: "default", uarchs: uarchs, workloads: workloads, verbose: true,
			cfg: withEngine(t, harness.RunConfig{Seed: 1})}
		var code int
		stderr := captureStderr(t, func() { code = optimizeCmd(&buf, opts) })
		if code != 0 {
			t.Fatalf("optimize -uarch %s -workloads %s: exit %d\n%s", uarchs, workloads, code, stderr)
		}
		return buf.String()
	}
	got := runOpt("Zen,Zen", "getpid,grid/lebench/getpid")
	want := runOpt("Zen", "getpid")
	if got != want {
		t.Fatalf("duplicated uarch and workload changed the report:\n got:\n%s\n want:\n%s", got, want)
	}
	if n := strings.Count(got, "\nZen "); n != 1 {
		t.Errorf("%d Zen rows, want 1:\n%s", n, got)
	}
	if !strings.Contains(got, "search: 21504 combos") {
		t.Errorf("totals do not count one uarch's lattice:\n%s", got)
	}
}
