package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spectrebench/internal/engine"
)

// TestGoldenRunAll pins the stdout of `spectrebench run all` to
// checked-in bytes: the text render at -jobs 1 and 4, the -csv render,
// and the render under -faults -seed 7 at -jobs 1 and 4. Every host-side
// accelerator (block cache, superblock chaining, core pooling, the
// memory-path caches, checkpointed warmup, canonical dedup) is on
// this path, so any of them changing a simulated cycle
// or a fault-injection draw shows up here as a diff against the file.
func TestGoldenRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry runs are slow")
	}
	cases := []struct {
		file   string
		jobs   int
		csv    bool
		faults bool
	}{
		{"run_all.txt", 1, false, false},
		{"run_all.txt", 4, false, false},
		{"run_all.csv", 4, true, false},
		{"run_all_faults_seed7.txt", 1, false, true},
		{"run_all_faults_seed7.txt", 4, false, true},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/jobs=%d", tc.file, tc.jobs)
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			// The CLI's defaults: seed 1 unless -seed 7 goes with -faults.
			cfg := RunConfig{Seed: 1, Faults: tc.faults, Retries: DefaultRetries}
			if tc.faults {
				cfg.Seed = 7
			}
			eng := engine.New(tc.jobs)
			defer eng.Close()
			cfg.Engine = eng
			got := RenderResults(SuperviseEach(All(), cfg, nil), tc.csv, nil)
			if want := string(raw); got != want {
				t.Errorf("output differs from testdata/%s\n%s", tc.file, lineDiff(want, got))
			}
		})
	}
}

// lineDiff reports the first few differing lines of two renders.
func lineDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		if shown++; shown == 10 {
			b.WriteString("  ...\n")
			break
		}
	}
	if len(w) != len(g) {
		fmt.Fprintf(&b, "want %d lines, got %d\n", len(w), len(g))
	}
	return b.String()
}
