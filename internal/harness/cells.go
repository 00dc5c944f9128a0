package harness

import (
	"fmt"
	"strconv"
	"sync/atomic"

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
// mutable state. It also keeps the attempt scope itself: every cell
// wait charges the cell's cycles to it.
type cellSet struct {
	eng    *engine.Engine
	scope  *simscope.Scope
	seed   uint64
	budget uint64
}

// declareCells reads the current supervised scope, once per experiment
// attempt. Experiments run only under one (SuperviseEach installs it);
// outside it there is no engine to schedule on, and declareCells
// panics. The per-model tasks an experiment fans out run under the same
// scope, so its cell waits charge it wherever they run.
func declareCells() *cellSet {
	sc := simscope.Current()
	var eng *engine.Engine
	if sc != nil {
		eng, _ = sc.Tag.(*engine.Engine)
	}
	if eng == nil {
		panic("harness: experiment run outside a supervised scope")
	}
	cs := &cellSet{eng: eng, scope: sc, budget: sc.Budget}
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
		Config:   config + "|budget=" + strconv.FormatUint(cs.budget, 10),
		Seed:     cs.seed,
	}, fn)
}

// cell schedules one simulation cell: workload × CPU model × mitigation
// configuration (plus the set's seed and budget).
func (cs *cellSet) cell(workload string, m *model.CPU, mit kernel.Mitigations, fn func() (any, error)) *engine.Task {
	return cs.raw(workload, m.Uarch, mitConfig(mit), fn)
}

// mitConfigs memoizes each mitigation set's key rendering by
// Mitigations.Index, which is injective over every field (see
// TestIndexSeesEveryField): a warm replay re-declares every cell, and
// formatting the struct is then most of what a declaration costs.
var mitConfigs [kernel.IndexSpace]atomic.Pointer[string]

// mitConfig renders mit as a cell config, fmt.Sprintf("%+v", mit), once
// per distinct set per process.
func mitConfig(mit kernel.Mitigations) string {
	p := &mitConfigs[mit.Index()]
	if s := p.Load(); s != nil {
		return *s
	}
	s := fmt.Sprintf("%+v", mit)
	p.Store(&s)
	return s
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

// wait gathers a cell, charging its cycles to the attempt scope.
func (cs *cellSet) wait(t *engine.Task) (any, error) {
	return t.Wait(cs.scope)
}

// waitF gathers a float cell.
func (cs *cellSet) waitF(t *engine.Task) (float64, error) {
	v, err := cs.wait(t)
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// lebenchCell schedules the shared "run the LEBench suite" cell: one
// execution per (model, mitigations) for the whole process, shared by
// fig2's ladder rungs, lebench-detail and the ablations' LEBench arms.
func (cs *cellSet) lebenchCell(m *model.CPU, mit kernel.Mitigations) *engine.Task {
	return cs.cell("lebench/run", m, mit, func() (any, error) {
		res, err := lebench.Run(m, mit)
		if err != nil {
			return nil, err
		}
		return res, nil
	})
}

// lebenchResults gathers a lebenchCell. The returned slice is cached and
// must be treated as read-only.
func (cs *cellSet) lebenchResults(t *engine.Task) ([]lebench.Result, error) {
	v, err := cs.wait(t)
	if err != nil {
		return nil, err
	}
	return v.([]lebench.Result), nil
}

// lebenchRun schedules and gathers one LEBench suite cell.
func (cs *cellSet) lebenchRun(m *model.CPU, mit kernel.Mitigations) ([]lebench.Result, error) {
	return cs.lebenchResults(cs.lebenchCell(m, mit))
}

// lebenchGeoOf gathers a lebenchCell as the Figure 2 workload: the
// geometric mean of the suite's cycles.
func (cs *cellSet) lebenchGeoOf(t *engine.Task) (float64, error) {
	res, err := cs.lebenchResults(t)
	if err != nil {
		return 0, err
	}
	vals := make([]float64, len(res))
	for i, r := range res {
		vals[i] = r.Cycles
	}
	return stats.GeoMean(vals), nil
}

// lebenchGeo is the Figure 2 workload routed through the cell cache.
func (cs *cellSet) lebenchGeo(m *model.CPU, mit kernel.Mitigations) (float64, error) {
	return cs.lebenchGeoOf(cs.lebenchCell(m, mit))
}
