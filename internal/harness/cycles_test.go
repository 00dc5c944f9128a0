package harness

import (
	"testing"

	"spectrebench/internal/engine"
)

// TestResultCyclesColdWarmAndJobs pins the contract behind the cycles
// field of every /sweep record, which is Result.Cycles: an experiment
// is charged each of its cell waits in full, whether the cell simulated
// in this batch or was already in the engine's memo, and whatever the
// worker count. So a cold and a warm batch on one engine, at one worker
// and at two, all report the same cycles per experiment.
func TestResultCyclesColdWarmAndJobs(t *testing.T) {
	exps := lookupAll(t, []string{"table3", "table9", "smt-cost", "ablations"})
	batch := func(eng *engine.Engine) []Result {
		res := SuperviseEach(exps, RunConfig{Engine: eng, Retries: -1}, nil)
		for _, r := range res {
			if r.Status != StatusOK {
				t.Fatalf("%s: status %s: %v", r.ID, r.Status, r.Err)
			}
		}
		return res
	}
	var ref []Result
	for _, jobs := range []int{1, 2} {
		eng := engine.New(jobs)
		cold := batch(eng)
		warm := batch(eng)
		eng.Close()
		if ref == nil {
			ref = cold
		}
		for i, r := range cold {
			if r.Cycles == 0 {
				t.Errorf("jobs=%d: %s charged no cycles", jobs, r.ID)
			}
			if warm[i].Cycles != r.Cycles {
				t.Errorf("jobs=%d: %s warm cycles %d, cold %d", jobs, r.ID, warm[i].Cycles, r.Cycles)
			}
			if r.Cycles != ref[i].Cycles {
				t.Errorf("%s: jobs=%d cycles %d, jobs=1 %d", r.ID, jobs, r.Cycles, ref[i].Cycles)
			}
		}
	}
}
