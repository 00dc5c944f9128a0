// Package core implements the paper's primary contribution: a harness
// that measures the end-to-end cost of transient-execution mitigations
// and attributes the total slowdown to individual mitigations, across
// CPU models (§4.1).
//
// The method: run a workload under the default mitigation set, then
// under a ladder of configurations that disable one mitigation at a
// time, cumulatively, ending at mitigations=off. The difference between
// adjacent rungs is the cost attributable to the mitigation disabled at
// that rung. Each configuration is sampled repeatedly with a 95%
// confidence interval, stopping once the interval is tight.
package core

import (
	"fmt"

	"spectrebench/internal/cpu"
	"spectrebench/internal/engine"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/stats"
)

// Machine bundles a booted simulator: one core and one kernel.
type Machine struct {
	CPU    *cpu.Core
	Kernel *kernel.Kernel
}

// Boot creates a machine for the CPU model with the given mitigations.
func Boot(m *model.CPU, mit kernel.Mitigations) *Machine {
	c := cpu.New(m)
	k := kernel.New(c, mit)
	return &Machine{CPU: c, Kernel: k}
}

// BootDefault boots with the model's Table 1 default mitigations.
func BootDefault(m *model.CPU) *Machine {
	return Boot(m, kernel.Defaults(m))
}

// Workload measures one benchmark configuration: it must build a fresh
// machine from the inputs and return a cost (simulated cycles; lower is
// better).
type Workload func(m *model.CPU, mit kernel.Mitigations) (float64, error)

// Step is one rung of an attribution ladder: the named mitigation is
// disabled (cumulatively with all previous rungs) by applying Params.
type Step struct {
	// Name of the mitigation whose cost this rung isolates.
	Name string
	// Params are folded over the previous rung's boot parameters.
	Params kernel.BootParams
}

// OSLadder is the attribution ladder used for operating-system
// workloads (Figure 2): the mitigations the paper found responsible for
// nearly all of the LEBench overhead, most expensive first.
func OSLadder() []Step {
	return []Step{
		{Name: "MDS (verw)", Params: kernel.BootParams{MDSOff: true}},
		{Name: "Meltdown (PTI)", Params: kernel.BootParams{NoPTI: true}},
		{Name: "Spectre V2 (retpoline/eIBRS+IBPB+RSB)", Params: kernel.BootParams{NoSpectreV2: true}},
		{Name: "Spectre V1 (lfence/masking)", Params: kernel.BootParams{NoSpectreV1: true}},
		{Name: "other", Params: kernel.BootParams{MitigationsOff: true}},
	}
}

// Part is one mitigation's share of the total overhead.
type Part struct {
	Name string
	// Overhead is the slowdown fraction attributable to this mitigation
	// (relative to the fully-unmitigated baseline).
	Overhead float64
	// Sample carries the measurement statistics of the rung at which
	// the mitigation was still enabled.
	Sample *stats.Sample
}

// Attribution is the result of one CPU × workload decomposition.
type Attribution struct {
	CPU   string
	Total float64 // total overhead fraction: defaults vs mitigations=off
	Parts []Part
	// Baseline is the unmitigated cost in cycles.
	Baseline float64
	// Mitigated is the fully-mitigated cost in cycles.
	Mitigated float64
}

// Config controls the sampling methodology (§4.1).
type Config struct {
	// MinRuns/MaxRuns bound the repetitions per configuration.
	MinRuns, MaxRuns int
	// RelCI is the target relative half-width of the 95% CI.
	RelCI float64
}

// DefaultConfig mirrors the paper's setup: runs repeat until the 95% CI
// is within 1% of the mean. The simulator is deterministic, so a
// workload that wants run-to-run variation applies it itself (see
// stats.Noise).
func DefaultConfig() Config {
	return Config{MinRuns: 3, MaxRuns: 40, RelCI: 0.01}
}

// Attribute decomposes the workload's mitigation overhead on one CPU.
func Attribute(m *model.CPU, wl Workload, ladder []Step, cfg Config) (*Attribution, error) {
	if cfg.MinRuns == 0 {
		cfg = DefaultConfig()
	}

	measure := func(mit kernel.Mitigations) (*stats.Sample, error) {
		var err error
		s := stats.RunUntil(cfg.MinRuns, cfg.MaxRuns, cfg.RelCI, func() float64 {
			v, e := wl(m, mit)
			if e != nil && err == nil {
				err = e
			}
			return v
		})
		return s, err
	}

	// Rung 0: full defaults.
	mit := kernel.Defaults(m)
	full, err := measure(mit)
	if err != nil {
		return nil, fmt.Errorf("core: defaults on %s: %w", m.Uarch, err)
	}

	attr := &Attribution{CPU: m.Uarch, Mitigated: full.Mean()}
	prev := full.Mean()
	params := kernel.BootParams{}
	for _, step := range ladder {
		params = merge(params, step.Params)
		s, err := measure(params.Apply(m, kernel.Defaults(m)))
		if err != nil {
			return nil, fmt.Errorf("core: rung %q on %s: %w", step.Name, m.Uarch, err)
		}
		attr.Parts = append(attr.Parts, Part{Name: step.Name, Overhead: prev - s.Mean(), Sample: s})
		prev = s.Mean()
	}
	attr.Baseline = prev
	if attr.Baseline > 0 {
		attr.Total = (attr.Mitigated - attr.Baseline) / attr.Baseline
		for i := range attr.Parts {
			attr.Parts[i].Overhead /= attr.Baseline
		}
	}
	return attr, nil
}

// merge folds b's set fields over a (boot parameters accumulate down
// the ladder).
func merge(a, b kernel.BootParams) kernel.BootParams {
	if b.MitigationsOff {
		a.MitigationsOff = true
	}
	if b.NoPTI {
		a.NoPTI = true
	}
	if b.ForcePTI {
		a.ForcePTI = true
	}
	if b.NoSpectreV1 {
		a.NoSpectreV1 = true
	}
	if b.NoSpectreV2 {
		a.NoSpectreV2 = true
	}
	if b.SpectreV2 != "" {
		a.SpectreV2 = b.SpectreV2
	}
	if b.MDSOff {
		a.MDSOff = true
	}
	if b.NoSSBSD {
		a.NoSSBSD = true
	}
	if b.SSBDOn {
		a.SSBDOn = true
	}
	if b.LazyFPU {
		a.LazyFPU = true
	}
	if b.L1TFOff {
		a.L1TFOff = true
	}
	if b.NoSMT {
		a.NoSMT = true
	}
	if b.NoIBPB {
		a.NoIBPB = true
	}
	if b.NoRSBStuff {
		a.NoRSBStuff = true
	}
	return a
}

// Sweep runs the attribution for every CPU in the registry against one
// workload — the full Figure 2 / Figure 3 data set. Each CPU's
// attribution runs as its own task on eng, all submitted in one
// GoBatch, fanning out across the worker pool; results are gathered in registry order so the output is
// independent of scheduling. The CPUs' attributions run concurrently,
// so wl must be safe for concurrent use.
func Sweep(eng *engine.Engine, wl Workload, ladder []Step, cfg Config) ([]*Attribution, error) {
	items := make([]engine.BatchGo, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		items = append(items, engine.BatchGo{Label: "sweep/" + m.Uarch, Fn: func() (any, error) {
			a, err := Attribute(m, wl, ladder, cfg)
			if err != nil {
				return nil, err
			}
			return a, nil
		}})
	}
	tasks := eng.GoBatch(items)
	out := make([]*Attribution, 0, len(tasks))
	for _, t := range tasks {
		v, err := t.Wait(nil) // unkeyed: charges no scope
		if err != nil {
			return nil, err
		}
		out = append(out, v.(*Attribution))
	}
	return out, nil
}
