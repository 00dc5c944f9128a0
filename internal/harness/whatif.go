package harness

import (
	"fmt"

	"spectrebench/internal/cpu"
	"spectrebench/internal/engine"
	"spectrebench/internal/js"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/stats"
	"spectrebench/internal/workloads/octane"
)

func init() {
	register(Experiment{
		ID: "whatif-v1hw", Paper: "§7",
		Title: "What-if: hardware-fused cmov guards (the paper's Spectre V1 acceleration proposal)",
		Run:   runWhatIfV1HW,
	})
}

// runWhatIfV1HW quantifies §7's prediction: if hardware recognised the
// JIT's cmov-before-load guard pattern and fused it, the Spectre V1
// masking and object-guard costs would disappear while the JIT keeps
// emitting the same (now architecturally free) guards. The experiment
// runs the Octane suite on each CPU with the full browser hardening,
// with and without the hypothetical fusion, and reports the recovered
// fraction of runtime.
//
// The unfused arm is exactly the fully hardened suite of Figure 3's
// first rung (octane.BrowserDefault folds the same mitigation set), so
// it is declared under the same "octane/suite" cell key and simulates
// once for both experiments.
func runWhatIfV1HW() (*Table, error) {
	t := &Table{
		ID:    "whatif-v1hw",
		Title: "Octane with full hardening: today's hardware vs hypothetical guard-fusion",
		Columns: []string{"CPU", "hardened (cycles)", "with fusion (cycles)",
			"recovered", "guards left in code"},
	}
	cs := declareCells()
	hardened := octane.BrowserDefault()
	config := fmt.Sprintf("%+v", hardened) // one rendering for every model
	type arms struct{ base, fused *engine.Task }
	cells := make([]arms, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		cells = append(cells, arms{
			base: cs.raw("octane/suite", m.Uarch, config, func() (any, error) {
				v, err := octane.RunSuite(m, hardened)
				if err != nil {
					return nil, err
				}
				return v, nil
			}),
			fused: cs.raw("octane/suite-fused", m.Uarch, config, func() (any, error) {
				v, err := runOctaneFused(m)
				if err != nil {
					return nil, err
				}
				return v, nil
			}),
		})
	}
	for i, m := range model.All() {
		base, err := cs.waitF(cells[i].base)
		if err != nil {
			return nil, err
		}
		fused, err := cs.waitF(cells[i].fused)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			m.Uarch, cyc(base), cyc(fused),
			pct((base - fused) / base), "yes (still block the attack)",
		})
	}
	t.Notes = append(t.Notes,
		"the JIT emits identical guard instructions in both configurations; only their cycle cost changes",
		"§7: \"this pattern of a conditional move followed by a load could be detected by hardware\"")
	return t, nil
}

// runOctaneFused runs the fully hardened Octane suite on a core with
// the hypothetical guard fusion enabled.
func runOctaneFused(m *model.CPU) (float64, error) {
	var cycles []float64
	for _, k := range octane.Kernels() {
		e := js.NewEngine(m, kernel.Defaults(m), js.AllMitigations())
		e.CPUSetup = func(c *cpu.Core) { c.FusedCmovGuards = true }
		res, err := e.Run(k.Source, 200_000_000)
		if err != nil {
			return 0, fmt.Errorf("whatif %s: %w", k.Name, err)
		}
		if len(res.Reports) == 0 || res.Reports[len(res.Reports)-1] != k.Expect {
			return 0, fmt.Errorf("whatif %s: bad checksum %v", k.Name, res.Reports)
		}
		cycles = append(cycles, float64(res.Cycles))
	}
	return stats.GeoMean(cycles), nil
}
