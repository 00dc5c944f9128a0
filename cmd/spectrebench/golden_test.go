package main

import (
	"bufio"
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spectrebench/internal/engine"
	"spectrebench/internal/harness"
)

// withEngine returns cfg carrying a fresh engine of its own, closed
// when the test ends, as main gives every CLI invocation.
func withEngine(t *testing.T, cfg harness.RunConfig) harness.RunConfig {
	t.Helper()
	cfg.Engine = engine.New(0)
	t.Cleanup(cfg.Engine.Close)
	return cfg
}

// gridbenchCases are the 10,000-cell gridbench invocations pinned in
// testdata/gridbench.md5.
var gridbenchCases = []struct {
	args string
	cfg  harness.RunConfig
}{
	{"-cells 10000 gridbench", harness.RunConfig{Seed: 1}},
	{"-faults -seed 7 -cells 10000 gridbench", harness.RunConfig{Seed: 7, Faults: true}},
}

// TestGridbenchGolden pins the 10,000-cell gridbench stdout to the md5
// sums in testdata/gridbench.md5, with and without fault injection, and
// with no store, a cold store and a warm store behind the engine. Each
// call gets its own engine, as each CLI process does, so the cold pass
// really fills the store and the warm pass really replays it.
func TestGridbenchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-cell sweeps are slow")
	}
	want := readMD5s(t, filepath.Join("testdata", "gridbench.md5"))
	for _, tc := range gridbenchCases {
		sum, ok := want[tc.args]
		if !ok {
			t.Fatalf("testdata/gridbench.md5 has no line for %q", tc.args)
		}
		dir := t.TempDir()
		var notes []storeNote
		for _, storeDir := range []string{"", dir, dir} { // none, cold, warm
			var buf bytes.Buffer
			var code int
			stderr := captureStderr(t, func() {
				code = gridbench(&buf, gridOptions{cells: 10000, cfg: withEngine(t, tc.cfg), storeDir: storeDir})
			})
			if code != 0 {
				t.Fatalf("%s (store %q): exit %d\n%s", tc.args, storeDir, code, stderr)
			}
			got := md5.Sum(buf.Bytes())
			if hex.EncodeToString(got[:]) != sum {
				t.Errorf("%s (store %q): md5 %x, want %s", tc.args, storeDir, got, sum)
			}
			if storeDir != "" {
				notes = append(notes, parseStoreNote(t, stderr))
			}
		}
		cold, warm := notes[0], notes[1]
		t.Logf("%s: cold store pass %+v, warm %+v", tc.args, cold, warm)
		if cold.hits != 0 || cold.written == 0 || cold.written != cold.entries {
			t.Errorf("%s: cold store pass = %+v, want 0 hits and every entry written", tc.args, cold)
		}
		if warm.misses != 0 || warm.written != 0 || warm.hits != cold.written {
			t.Errorf("%s: warm store pass = %+v, want a pure replay of the cold pass's %d entries", tc.args, warm, cold.written)
		}
	}
}

// TestGridbenchIsolated runs a faulted and a fault-free gridbench side
// by side in one process: each carries its fault activation in its own
// scope and its own engine, so each must still match its golden md5.
func TestGridbenchIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-cell sweeps are slow")
	}
	want := readMD5s(t, filepath.Join("testdata", "gridbench.md5"))
	sums := make([]string, len(gridbenchCases))
	codes := make([]int, len(gridbenchCases))
	var wg sync.WaitGroup
	for i, tc := range gridbenchCases {
		i, cfg := i, withEngine(t, tc.cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			codes[i] = gridbench(&buf, gridOptions{cells: 10000, cfg: cfg})
			got := md5.Sum(buf.Bytes())
			sums[i] = hex.EncodeToString(got[:])
		}()
	}
	wg.Wait()
	for i, tc := range gridbenchCases {
		if codes[i] != 0 {
			t.Errorf("%s: exit %d", tc.args, codes[i])
		}
		if sums[i] != want[tc.args] {
			t.Errorf("%s: md5 %s, want %s", tc.args, sums[i], want[tc.args])
		}
	}
}

// storeNote is the counters of the store note gridbench prints to
// stderr when its store closes.
type storeNote struct {
	entries, hits, misses, written uint64
}

// parseStoreNote finds the "cell store: ..." note in stderr.
func parseStoreNote(t *testing.T, stderr string) storeNote {
	t.Helper()
	_, rest, ok := strings.Cut(stderr, "cell store: ")
	if !ok {
		t.Fatalf("no store note on stderr:\n%s", stderr)
	}
	var n storeNote
	if _, err := fmt.Sscanf(rest, "%d entries, %d hits, %d misses, %d written",
		&n.entries, &n.hits, &n.misses, &n.written); err != nil {
		t.Fatalf("store note %q: %v", rest, err)
	}
	return n
}

// captureStderr runs fn with os.Stderr redirected to a file and returns
// what fn wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// readMD5s parses md5sum-style lines ("<hex>  <label>") into label → sum.
func readMD5s(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, label, ok := strings.Cut(sc.Text(), "  ")
		if ok {
			out[label] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
