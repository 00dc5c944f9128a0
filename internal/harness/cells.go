package harness

import (
	"fmt"

	"spectrebench/internal/engine"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/simscope"
	"spectrebench/internal/stats"
	"spectrebench/internal/workloads/lebench"
)

// cellSet is an experiment's handle for declaring simulation cells. It
// snapshots the determinism parameters of the surrounding supervised
// attempt — which engine to schedule on, the fault seed (0 when faults
// are off, so identical cells dedupe across experiments), and the
// watchdog budget (folded into every key: a cell observed under one
// budget is not interchangeable with the same cell under another) — so
// cell keys are a pure function of experiment identity, not of global
// mutable state.
type cellSet struct {
	eng    *engine.Engine
	seed   uint64
	budget uint64
}

// declareCells reads the current supervised scope. Experiments run
// only under one (SuperviseEach installs it); outside it there is no
// engine to schedule on, and declareCells panics.
func declareCells() *cellSet {
	sc := simscope.Current()
	var eng *engine.Engine
	if sc != nil {
		eng, _ = sc.Tag.(*engine.Engine)
	}
	if eng == nil {
		panic("harness: experiment run outside a supervised scope")
	}
	cs := &cellSet{eng: eng, budget: sc.Budget}
	if sc.Fault != nil {
		cs.seed = sc.FaultSeed
	}
	return cs
}

// raw schedules a cell with an explicit config string (for workloads
// whose configuration is not a kernel.Mitigations value).
func (cs *cellSet) raw(workload, uarch, config string, fn func() (any, error)) *engine.Task {
	return cs.eng.Submit(engine.Key{
		Workload: workload,
		Uarch:    uarch,
		Config:   fmt.Sprintf("%s|budget=%d", config, cs.budget),
		Seed:     cs.seed,
	}, fn)
}

// cell schedules one simulation cell: workload × CPU model × mitigation
// configuration (plus the set's seed and budget).
func (cs *cellSet) cell(workload string, m *model.CPU, mit kernel.Mitigations, fn func() (any, error)) *engine.Task {
	return cs.raw(workload, m.Uarch, fmt.Sprintf("%+v", mit), fn)
}

// float is cell for the common case of a single float64 measurement.
func (cs *cellSet) float(workload string, m *model.CPU, mit kernel.Mitigations, fn func() (float64, error)) *engine.Task {
	return cs.cell(workload, m, mit, func() (any, error) {
		v, err := fn()
		if err != nil {
			return nil, err
		}
		return v, nil
	})
}

// waitF gathers a float cell.
func waitF(t *engine.Task) (float64, error) {
	v, err := t.Wait()
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// lebenchRun is the shared "run the LEBench suite" cell: one execution
// per (model, mitigations) for the whole process, shared by fig2's
// ladder rungs and lebench-detail. The returned slice is cached and
// must be treated as read-only.
func (cs *cellSet) lebenchRun(m *model.CPU, mit kernel.Mitigations) ([]lebench.Result, error) {
	v, err := cs.cell("lebench/run", m, mit, func() (any, error) {
		res, err := lebench.Run(m, mit)
		if err != nil {
			return nil, err
		}
		return res, nil
	}).Wait()
	if err != nil {
		return nil, err
	}
	return v.([]lebench.Result), nil
}

// lebenchGeo is the Figure 2 workload routed through the cell cache.
func (cs *cellSet) lebenchGeo(m *model.CPU, mit kernel.Mitigations) (float64, error) {
	res, err := cs.lebenchRun(m, mit)
	if err != nil {
		return 0, err
	}
	vals := make([]float64, len(res))
	for i, r := range res {
		vals[i] = r.Cycles
	}
	return stats.GeoMean(vals), nil
}
