package harness

import (
	"fmt"
	"runtime"
	"testing"

	"spectrebench/internal/engine"
)

// lookupAll resolves experiment IDs, failing the test on a bad ID.
func lookupAll(t *testing.T, ids []string) []Experiment {
	t.Helper()
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// renderBatch supervises the experiments on a throwaway engine with the
// given worker count and returns the full rendered output (tables,
// summary, cache note) — the exact bytes the CLI would print.
func renderBatch(t *testing.T, exps []Experiment, jobs int, faults bool) string {
	t.Helper()
	eng := engine.New(jobs)
	defer eng.Close()
	cfg := RunConfig{Seed: 7, Faults: faults, Retries: DefaultRetries, Engine: eng}
	return RenderResults(SuperviseAll(exps, cfg), false, eng)
}

// TestParallelDeterminism is the PR's headline guarantee: the rendered
// output of a supervised batch — including per-experiment cycle counts
// and the cache hit/miss note — is byte-identical for any -jobs value.
// The subset includes the cell-sharing cliques (fig3 + whatif-v1hw on
// "octane/suite", fig2 + lebench-detail on "lebench/run") where
// scheduling-order bugs would surface first. vm-lfs is left out to keep
// the race-detector run bounded.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-jobs batch runs are slow")
	}
	exps := lookupAll(t, []string{
		"table3", "table5", "fig3", "whatif-v1hw", "lebench-detail", "smt-cost",
	})
	jobsLadder := []int{4, runtime.GOMAXPROCS(0)}

	want := renderBatch(t, exps, 1, false)
	for _, jobs := range jobsLadder {
		if got := renderBatch(t, exps, jobs, false); got != want {
			t.Errorf("jobs=%d output differs from jobs=1\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s", jobs, want, jobs, got)
		}
	}
}

// TestParallelDeterminismWithFaults repeats the byte-identity check
// under deterministic fault injection (seed 7): per-cell injector
// streams derive from the cell key and the attempt scope, never from
// global creation order, so injected weather must not depend on worker
// count either.
func TestParallelDeterminismWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-jobs batch runs are slow")
	}
	exps := lookupAll(t, []string{"table3", "table9", "fig5"})

	want := renderBatch(t, exps, 1, true)
	for _, jobs := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := renderBatch(t, exps, jobs, true); got != want {
			t.Errorf("faulted jobs=%d output differs from jobs=1\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s", jobs, want, jobs, got)
		}
	}
}

// TestAblationMatrixDeterminism pins the scaling layer: the rendered
// output is byte-identical across -jobs 1, 4 and 8 × fault injection
// on/off. Every core comes from the per-uarch pool (reinit instead of
// reconstruct) and cells run on the sharded scheduler, so a core
// recycled on another worker, in another order, must be invisible in
// the output.
func TestAblationMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix batch runs are slow")
	}
	exps := lookupAll(t, []string{"table3", "fig3", "whatif-v1hw", "lebench-detail"})

	for _, faults := range []bool{false, true} {
		want := renderBatch(t, exps, 1, faults)
		for _, jobs := range []int{4, 8} {
			name := fmt.Sprintf("jobs=%d/faults=%v", jobs, faults)
			if got := renderBatch(t, exps, jobs, faults); got != want {
				t.Errorf("%s output differs from jobs=1\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
			}
		}
	}
}

// TestMemFastMatrixDeterminism pins the memory-path caches: the
// rendered output is byte-identical across -jobs × fault injection
// on/off, and across a batch run a second time on cores recycled from
// the first. Recycled cores carry epoch-stamped cache and TLB state,
// MRU way hints and translation caches through reinit; none of it may
// leak into a simulated cycle or a fault-injection draw.
func TestMemFastMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix batch runs are slow")
	}
	exps := lookupAll(t, []string{"table3", "fig3", "whatif-v1hw"})

	for _, faults := range []bool{false, true} {
		want := renderBatch(t, exps, 1, faults)
		for _, jobs := range []int{1, 4} {
			for _, run := range []string{"first", "recycled"} {
				if jobs == 1 && run == "first" {
					continue // the reference batch itself
				}
				name := fmt.Sprintf("jobs=%d/%s/faults=%v", jobs, run, faults)
				if got := renderBatch(t, exps, jobs, faults); got != want {
					t.Errorf("%s output differs from jobs=1\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
				}
			}
		}
	}
}

// TestCellCacheDedupesSharedCells pins the cache's reason to exist:
// whatif-v1hw's unfused arm is fig3's fully hardened rung, so running
// both in one batch serves at least one cell from cache.
func TestCellCacheDedupesSharedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("batch run is slow")
	}
	eng := engine.New(1)
	defer eng.Close()
	cfg := RunConfig{Retries: DefaultRetries, Engine: eng}
	res := SuperviseAll(lookupAll(t, []string{"fig3", "whatif-v1hw"}), cfg)
	for _, r := range res {
		if r.Status != StatusOK {
			t.Fatalf("%s: %s: %v", r.ID, r.Status, r.Err)
		}
	}
	hits, misses := eng.Stats()
	if hits == 0 {
		t.Errorf("no cache hits across fig3 + whatif-v1hw (misses=%d); the shared octane/suite cells did not dedupe", misses)
	}
}
