package harness

import (
	"fmt"
	"testing"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/engine"
)

// renderBatchCSV is renderBatch with CSV output: the machine-readable
// records the determinism contract covers alongside the rendered tables.
func renderBatchCSV(t *testing.T, exps []Experiment, jobs int, faults bool) string {
	t.Helper()
	eng := engine.New(jobs)
	defer eng.Close()
	cfg := RunConfig{Seed: 7, Faults: faults, Retries: DefaultRetries, Engine: eng}
	return RenderResults(SuperviseAll(exps, cfg), true, eng)
}

// TestCheckpointMatrixDeterminism pins checkpointed warmup: rendered
// output and CSV records are byte-identical across -jobs × a cold or
// warm checkpoint registry × fault injection on/off. A cell forked
// from a checkpointed image (shared stub programs, COW page-table
// templates, reused JIT compiles) and run through chained superblocks
// must be indistinguishable from the cell that built the image —
// including every fault-injection draw, which is why the faults=true
// arm exists.
func TestCheckpointMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix batch runs are slow")
	}
	exps := lookupAll(t, []string{"table3", "fig3", "whatif-v1hw"})
	defer checkpoint.Clear()

	for _, faults := range []bool{false, true} {
		checkpoint.Clear() // the reference batch starts from a cold registry
		want := renderBatch(t, exps, 1, faults)
		checkpoint.Clear()
		wantCSV := renderBatchCSV(t, exps, 1, faults)
		for _, jobs := range []int{1, 4} {
			for _, registry := range []string{"cold", "warm"} {
				if jobs == 1 && registry == "cold" {
					continue // the reference configuration itself
				}
				name := fmt.Sprintf("jobs=%d/registry=%s/faults=%v", jobs, registry, faults)
				if registry == "cold" {
					checkpoint.Clear()
				}
				if got := renderBatch(t, exps, jobs, faults); got != want {
					t.Errorf("%s output differs from the cold jobs=1 reference\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
				}
				if registry == "cold" {
					checkpoint.Clear()
				}
				if got := renderBatchCSV(t, exps, jobs, faults); got != wantCSV {
					t.Errorf("%s CSV differs from the cold jobs=1 reference\n--- want ---\n%s\n--- got ---\n%s", name, wantCSV, got)
				}
			}
		}
	}
}

// TestCheckpointWarmRegistryDeterminism pins the fork path specifically:
// a batch run against an already-warm registry — where every cell forks
// from images built by a previous batch instead of building them itself
// — must produce the same bytes as the cold-registry run that built
// them. This is the "fork thousands of cells from snapshots" contract:
// first touch builds, every later touch replays.
func TestCheckpointWarmRegistryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("batch runs are slow")
	}
	exps := lookupAll(t, []string{"table3", "fig3"})

	defer checkpoint.Clear()
	checkpoint.Clear()
	cold := renderBatch(t, exps, 1, true)
	h0, _ := checkpoint.Stats()
	warm := renderBatch(t, exps, 1, true) // registry still holds the images
	h1, _ := checkpoint.Stats()
	if warm != cold {
		t.Errorf("warm-registry run differs from the cold run that built the images\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if h1 <= h0 {
		t.Errorf("warm run recorded no checkpoint hits (%d -> %d); the fork path was not exercised", h0, h1)
	}
}

// TestCheckpointRegistryServesForks sanity-checks coverage inside one
// batch: a multi-cell experiment list must fork at least some state
// from the registry rather than building every cell cold — otherwise
// the golden-output tests prove nothing about forked cells.
func TestCheckpointRegistryServesForks(t *testing.T) {
	if testing.Short() {
		t.Skip("batch run is slow")
	}
	defer checkpoint.Clear()
	checkpoint.Clear()

	eng := engine.New(1)
	defer eng.Close()
	cfg := RunConfig{Retries: DefaultRetries, Engine: eng}
	res := SuperviseAll(lookupAll(t, []string{"fig3"}), cfg)
	for _, r := range res {
		if r.Status != StatusOK {
			t.Fatalf("%s: %s: %v", r.ID, r.Status, r.Err)
		}
	}
	hits, misses := checkpoint.Stats()
	if hits == 0 {
		t.Errorf("no checkpoint hits in a fig3 batch (misses=%d); cells never forked from images", misses)
	}
	if misses == 0 {
		t.Error("no checkpoint misses; nothing was ever built cold, which should be impossible for first touches")
	}
}
