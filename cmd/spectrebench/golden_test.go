package main

import (
	"bufio"
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spectrebench/internal/harness"
)

// TestGridbenchGolden pins the 10,000-cell gridbench stdout to the md5
// sums in testdata/gridbench.md5, with and without fault injection, and
// with no store, a cold store and a warm store behind the engine.
func TestGridbenchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-cell sweeps are slow")
	}
	want := readMD5s(t, filepath.Join("testdata", "gridbench.md5"))
	cases := []struct {
		args string
		cfg  harness.RunConfig
	}{
		{"-cells 10000 gridbench", harness.RunConfig{Seed: 1}},
		{"-faults -seed 7 -cells 10000 gridbench", harness.RunConfig{Seed: 7, Faults: true}},
	}
	for _, tc := range cases {
		sum, ok := want[tc.args]
		if !ok {
			t.Fatalf("testdata/gridbench.md5 has no line for %q", tc.args)
		}
		dir := t.TempDir()
		for _, storeDir := range []string{"", dir, dir} { // none, cold, warm
			var buf bytes.Buffer
			if code := gridbench(&buf, gridOptions{cells: 10000, cfg: tc.cfg, storeDir: storeDir}); code != 0 {
				t.Fatalf("%s (store %q): exit %d", tc.args, storeDir, code)
			}
			got := md5.Sum(buf.Bytes())
			if hex.EncodeToString(got[:]) != sum {
				t.Errorf("%s (store %q): md5 %x, want %s", tc.args, storeDir, got, sum)
			}
		}
	}
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
