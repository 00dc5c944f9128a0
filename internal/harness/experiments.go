package harness

import (
	"fmt"

	"spectrebench/internal/attacks"
	"spectrebench/internal/core"
	"spectrebench/internal/engine"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/stats"
	"spectrebench/internal/workloads/lebench"
	"spectrebench/internal/workloads/lfs"
	"spectrebench/internal/workloads/octane"
	"spectrebench/internal/workloads/parsec"
)

// paperFig2Totals is the paper's Figure 2 total overhead, eyeballed from
// the published chart (fractions).
var paperFig2Totals = map[string]float64{
	"Broadwell": 0.32, "Skylake Client": 0.30, "Cascade Lake": 0.08,
	"Ice Lake Client": 0.04, "Ice Lake Server": 0.03,
	"Zen": 0.05, "Zen 2": 0.04, "Zen 3": 0.03,
}

func init() {
	register(Experiment{
		ID: "table1", Paper: "Table 1",
		Title: "Default mitigations used by Linux on each processor",
		Run:   runTable1,
	})
	register(Experiment{
		ID: "table2", Paper: "Table 2",
		Title: "Evaluated CPUs",
		Run:   runTable2,
	})
	register(Experiment{
		ID: "table3", Paper: "Table 3",
		Title: "Cycles for syscall, sysret, and page-table swap",
		Run:   runTable3,
	})
	register(Experiment{
		ID: "table4", Paper: "Table 4",
		Title: "Cycles to clear µarch buffers with verw",
		Run:   runTable4,
	})
	register(Experiment{
		ID: "table5", Paper: "Table 5",
		Title: "Indirect branch cost under IBRS and retpolines",
		Run:   runTable5,
	})
	register(Experiment{
		ID: "table6", Paper: "Table 6",
		Title: "Cycles per indirect branch prediction barrier (IBPB)",
		Run:   runTable6,
	})
	register(Experiment{
		ID: "table7", Paper: "Table 7",
		Title: "Cycles to stuff the RSB",
		Run:   runTable7,
	})
	register(Experiment{
		ID: "table8", Paper: "Table 8",
		Title: "Cycles per lfence (loads in flight)",
		Run:   runTable8,
	})
	register(Experiment{
		ID: "fig2", Paper: "Figure 2",
		Title: "LEBench mitigation overhead, attributed per mitigation",
		Run:   runFig2,
	})
	register(Experiment{
		ID: "fig3", Paper: "Figure 3",
		Title: "Octane slowdown from JavaScript and OS mitigations",
		Run:   runFig3,
	})
	register(Experiment{
		ID: "fig5", Paper: "Figure 5",
		Title: "PARSEC slowdown from forced SSBD",
		Run:   runFig5,
	})
	register(Experiment{
		ID: "table9", Paper: "Table 9",
		Title: "Speculation probe matrix, IBRS disabled",
		Run:   func() (*Table, error) { return runProbeTable("table9", false) },
	})
	register(Experiment{
		ID: "table10", Paper: "Table 10",
		Title: "Speculation probe matrix, IBRS enabled",
		Run:   func() (*Table, error) { return runProbeTable("table10", true) },
	})
	register(Experiment{
		ID: "vm-lebench", Paper: "§4.4",
		Title: "LEBench inside a VM: host mitigation overhead",
		Run:   runVMLEBench,
	})
	register(Experiment{
		ID: "vm-lfs", Paper: "§4.4",
		Title: "LFS smallfile/largefile in a VM against an emulated disk",
		Run:   runVMLFS,
	})
	register(Experiment{
		ID: "parsec-default", Paper: "§4.5",
		Title: "PARSEC overhead under default mitigations",
		Run:   runParsecDefault,
	})
	register(Experiment{
		ID: "security", Paper: "Table 1 (implied)",
		Title: "Attack × mitigation matrix: every PoC vs its defence",
		Run:   runSecurity,
	})
}

func runTable1() (*Table, error) {
	rows := []struct {
		attack, mitigation string
		enabled            func(m *model.CPU, mit kernel.Mitigations) string
	}{
		{"Meltdown", "Page Table Isolation", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.PTI, false)
		}},
		{"L1TF", "PTE Inversion", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.PTEInversion, false)
		}},
		{"L1TF", "Flush L1 Cache", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.L1TFFlushOnVMEntry, false)
		}},
		{"LazyFP", "Always save FPU", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.EagerFPU, false)
		}},
		{"Spectre V1", "Index Masking", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.SpectreV1, false)
		}},
		{"Spectre V1", "lfence after swapgs", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.SpectreV1, false)
		}},
		{"Spectre V2", "Generic Retpoline", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.SpectreV2 == kernel.V2RetpolineGeneric, false)
		}},
		{"Spectre V2", "AMD Retpoline", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.SpectreV2 == kernel.V2RetpolineAMD, false)
		}},
		{"Spectre V2", "Enhanced IBRS", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.SpectreV2 == kernel.V2EIBRS, false)
		}},
		{"Spectre V2", "RSB Stuffing", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.RSBStuff, false)
		}},
		{"Spectre V2", "IBPB", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.IBPB, false)
		}},
		{"Spec. Store Bypass", "SSBD", func(m *model.CPU, mit kernel.Mitigations) string {
			// Available but not default-enabled: the paper's "!".
			return "!"
		}},
		{"MDS", "Flush CPU Buffers", func(m *model.CPU, mit kernel.Mitigations) string {
			return mark(mit.MDSClear, false)
		}},
		{"MDS", "Disable SMT", func(m *model.CPU, mit kernel.Mitigations) string {
			if m.Vulns.MDS {
				return "!"
			}
			return ""
		}},
	}
	t := &Table{
		ID: "table1", Title: "Default mitigations (✓ = enabled, ! = available but off)",
		Columns: append([]string{"Attack", "Mitigation"}, uarchs()...),
	}
	for _, r := range rows {
		row := []string{r.attack, r.mitigation}
		for _, m := range model.All() {
			row = append(row, r.enabled(m, kernel.Defaults(m)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func mark(on bool, bang bool) string {
	switch {
	case on && bang:
		return "!"
	case on:
		return "✓"
	}
	return ""
}

func uarchs() []string {
	out := make([]string, 0, 8)
	for _, m := range model.All() {
		out = append(out, m.Uarch)
	}
	return out
}

func runTable2() (*Table, error) {
	t := &Table{
		ID: "table2", Title: "Evaluated CPUs",
		Columns: []string{"Vendor", "Model", "Microarchitecture", "Power (W)", "Clock (GHz)", "Cores", "SMT"},
	}
	for _, m := range model.All() {
		t.Rows = append(t.Rows, []string{
			string(m.Vendor), m.Model, fmt.Sprintf("%s (%d)", m.Uarch, m.Year),
			fmt.Sprintf("%d", m.PowerW), fmt.Sprintf("%.2f", m.ClockGHz),
			fmt.Sprintf("%d", m.Cores), check(m.SMT),
		})
	}
	return t, nil
}

func runTable3() (*Table, error) {
	cs := declareCells()
	none := kernel.Mitigations{}
	type t3cells struct{ sc, pair, cr3 *engine.Task }
	cells := make([]t3cells, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		c := t3cells{
			sc:   cs.float("micro/syscall", m, none, func() (float64, error) { return MeasureSyscall(m) }),
			pair: cs.float("micro/syscall-sysret", m, none, func() (float64, error) { return MeasureSyscallSysret(m) }),
		}
		if m.Vulns.Meltdown {
			c.cr3 = cs.float("micro/swap-cr3", m, none, func() (float64, error) { return MeasureSwapCR3(m) })
		}
		cells = append(cells, c)
	}

	t := &Table{
		ID: "table3", Title: "syscall / sysret / swap cr3 cycles (measured vs paper)",
		Columns: []string{"CPU", "syscall", "paper", "sysret", "paper", "swap cr3", "paper"},
	}
	for i, m := range model.All() {
		sc, err := waitF(cells[i].sc)
		if err != nil {
			return nil, err
		}
		pair, err := waitF(cells[i].pair)
		if err != nil {
			return nil, err
		}
		sysret := pair - sc
		row := []string{m.Uarch, cyc(sc), fmt.Sprint(m.Costs.Syscall), cyc(sysret), fmt.Sprint(m.Costs.Sysret)}
		if cells[i].cr3 != nil {
			cr3, err := waitF(cells[i].cr3)
			if err != nil {
				return nil, err
			}
			row = append(row, cyc(cr3), fmt.Sprint(m.Costs.SwapCR3))
		} else {
			row = append(row, "N/A", "N/A")
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runTable4() (*Table, error) {
	t := &Table{
		ID: "table4", Title: "verw buffer-clear cycles (measured vs paper)",
		Columns: []string{"CPU", "clear cycles", "paper"},
	}
	cs := declareCells()
	cells := make([]*engine.Task, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		cells = append(cells, cs.float("micro/verw", m, kernel.Mitigations{},
			func() (float64, error) { return MeasureVerw(m) }))
	}
	for i, m := range model.All() {
		v, err := waitF(cells[i])
		if err != nil {
			return nil, err
		}
		paper := "N/A"
		if m.Vulns.MDS {
			paper = fmt.Sprint(m.Costs.VerwClear)
		}
		t.Rows = append(t.Rows, []string{m.Uarch, cyc(v), paper})
	}
	t.Notes = append(t.Notes, "non-vulnerable parts execute only the legacy segmentation behaviour (tens of cycles)")
	return t, nil
}

func runTable5() (*Table, error) {
	t := &Table{
		ID: "table5", Title: "indirect branch cycles: baseline and mitigation deltas (paper deltas in parentheses)",
		Columns: []string{"CPU", "baseline", "IBRS", "generic", "AMD"},
	}
	cs := declareCells()
	none := kernel.Mitigations{}
	indirect := func(m *model.CPU, name string, v IndirectVariant) *engine.Task {
		return cs.float("micro/indirect/"+name, m, none,
			func() (float64, error) { return MeasureIndirect(m, v) })
	}
	type t5cells struct{ base, ibrs, generic, amd *engine.Task }
	cells := make([]t5cells, 0, len(model.All()))
	for _, m := range model.All() {
		c := t5cells{
			base:    indirect(m, "baseline", IndirectBaseline),
			generic: indirect(m, "retpoline-generic", IndirectRetpolineGeneric),
		}
		if m.Spec.IBRS {
			c.ibrs = indirect(m, "ibrs", IndirectIBRS)
		}
		if m.Costs.RetpolineAMDOK {
			c.amd = indirect(m, "retpoline-amd", IndirectRetpolineAMD)
		}
		cells = append(cells, c)
	}
	delta := func(t *engine.Task, base float64, paper uint64) (string, error) {
		if t == nil {
			return "N/A", nil
		}
		v, err := waitF(t)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+.0f (%+d)", v-base, paper), nil
	}
	for i, m := range model.All() {
		base, err := waitF(cells[i].base)
		if err != nil {
			return nil, err
		}
		row := []string{m.Uarch, cyc(base)}
		for _, col := range []struct {
			task  *engine.Task
			paper uint64
		}{
			{cells[i].ibrs, m.Costs.IBRSDelta},
			{cells[i].generic, m.Costs.RetpolineGeneric},
			{cells[i].amd, m.Costs.RetpolineAMD},
		} {
			cell, err := delta(col.task, base, col.paper)
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runTable6() (*Table, error) {
	t := &Table{
		ID: "table6", Title: "IBPB cycles (measured vs paper)",
		Columns: []string{"CPU", "IBPB cycles", "paper"},
	}
	cs := declareCells()
	cells := make([]*engine.Task, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		cells = append(cells, cs.float("micro/ibpb", m, kernel.Mitigations{},
			func() (float64, error) { return MeasureIBPB(m) }))
	}
	for i, m := range model.All() {
		v, err := waitF(cells[i])
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{m.Uarch, cyc(v), fmt.Sprint(m.Costs.IBPB)})
	}
	return t, nil
}

func runTable7() (*Table, error) {
	t := &Table{
		ID: "table7", Title: "RSB stuffing cycles",
		Columns: []string{"CPU", "RSB fill cycles (paper)"},
	}
	for _, m := range model.All() {
		t.Rows = append(t.Rows, []string{m.Uarch, fmt.Sprint(m.Costs.RSBFill)})
	}
	t.Notes = append(t.Notes,
		"the kernel charges the paper-measured sequence cost on every context switch; see kernel/sched.go")
	return t, nil
}

func runTable8() (*Table, error) {
	t := &Table{
		ID: "table8", Title: "lfence cycles with a load in flight (measured vs paper)",
		Columns: []string{"CPU", "lfence cycles", "paper"},
	}
	cs := declareCells()
	cells := make([]*engine.Task, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		cells = append(cells, cs.float("micro/lfence", m, kernel.Mitigations{},
			func() (float64, error) { return MeasureLfence(m) }))
	}
	for i, m := range model.All() {
		v, err := waitF(cells[i])
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{m.Uarch, cyc(v), fmt.Sprint(m.Costs.Lfence)})
	}
	t.Notes = append(t.Notes, "with no loads in flight the fence costs ~4 cycles on every model (the paper's caveat)")
	return t, nil
}

func runFig2() (*Table, error) {
	t := &Table{
		ID: "fig2", Title: "LEBench overhead attributed per mitigation (fraction of unmitigated)",
		Columns: []string{"CPU", "MDS", "PTI", "SpectreV2", "SpectreV1", "other", "total", "paper total"},
	}
	// The workload routes every suite execution through the "lebench/run"
	// cell, so the repeated samples RunUntil takes of one configuration —
	// and ladder rungs whose boot parameters strip a mitigation the CPU
	// never had (e.g. PTI on post-Meltdown parts) — all collapse to one
	// simulation, shared further with lebench-detail.
	cs := declareCells()
	cfg := core.Config{MinRuns: 2, MaxRuns: 3, RelCI: 0.05}
	attrs, err := core.Sweep(cs.eng, cs.lebenchGeo, core.OSLadder(), cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range attrs {
		row := []string{a.CPU}
		for _, p := range a.Parts {
			row = append(row, pct(p.Overhead))
		}
		row = append(row, pct(a.Total), pct(paperFig2Totals[a.CPU]))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runFig3() (*Table, error) {
	t := &Table{
		ID: "fig3", Title: "Octane slowdown decomposition (fraction of unmitigated)",
		Columns: []string{"CPU", "index masking", "object mitigations", "other JS", "SSBD", "other OS", "total"},
	}
	// One cell per (model, ladder rung): the fully hardened rung is the
	// exact suite whatif-v1hw measures as its baseline, so the two
	// experiments share it.
	cs := declareCells()
	rungs := octane.Rungs()
	cells := make([][]*engine.Task, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		per := make([]*engine.Task, len(rungs))
		for r, rung := range rungs {
			rcfg := rung.Config
			per[r] = cs.raw("octane/suite", m.Uarch, fmt.Sprintf("%+v", rcfg), func() (any, error) {
				v, err := octane.RunSuite(m, rcfg)
				if err != nil {
					return nil, err
				}
				return v, nil
			})
		}
		cells = append(cells, per)
	}
	for i, m := range model.All() {
		cycles := make([]float64, len(rungs))
		for r, task := range cells[i] {
			v, err := waitF(task)
			if err != nil {
				return nil, fmt.Errorf("octane rung %q: %w", rungs[r].Name, err)
			}
			cycles[r] = v
		}
		a := octane.AttributeCycles(m.Uarch, cycles)
		row := []string{a.CPU}
		for _, p := range a.Parts {
			row = append(row, pct(p.Overhead))
		}
		row = append(row, pct(a.Total))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: totals 15-25% on every CPU; index masking ~4%, object mitigations ~6%")
	return t, nil
}

func runFig5() (*Table, error) {
	t := &Table{
		ID: "fig5", Title: "PARSEC slowdown from forced SSBD",
		Columns: []string{"CPU", "swaptions", "facesim", "bodytrack"},
	}
	cs := declareCells()
	cells := make([][]*engine.Task, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		var per []*engine.Task
		for _, b := range parsec.Suite() {
			name := b.Name
			per = append(per, cs.float("parsec/ssbd/"+name, m, kernel.Mitigations{},
				func() (float64, error) { return parsec.SSBDSlowdown(m, name) }))
		}
		cells = append(cells, per)
	}
	for i, m := range model.All() {
		row := []string{m.Uarch}
		for _, task := range cells[i] {
			ov, err := waitF(task)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(ov))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: up to 34%, trending worse on newer parts")
	return t, nil
}

func runProbeTable(id string, ibrs bool) (*Table, error) {
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("BTB poisoning matrix (IBRS %v): can training in mode X steer mode Y?", ibrs),
		Columns: []string{"CPU", "u→k (sys)", "u→u (sys)", "k→k (sys)",
			"u→u (no sys)", "k→k (no sys)"},
	}
	cs := declareCells()
	cells := make([]*engine.Task, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		cells = append(cells, cs.raw(fmt.Sprintf("attacks/probe/ibrs=%v", ibrs), m.Uarch, "", func() (any, error) {
			r, err := attacks.RunProbe(m, ibrs)
			if err != nil {
				return nil, err
			}
			return r, nil
		}))
	}
	results := make([]*attacks.ProbeResult, 0, len(cells))
	for _, task := range cells {
		v, err := task.Wait()
		if err != nil {
			return nil, err
		}
		results = append(results, v.(*attacks.ProbeResult))
	}
	for _, r := range results {
		row := []string{r.CPU}
		if !r.Supported {
			row = append(row, "N/A", "N/A", "N/A", "N/A", "N/A")
		} else {
			for s := attacks.Scenario(0); s < 5; s++ {
				row = append(row, mark(r.Speculated[s], false))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runVMLEBench() (*Table, error) {
	t := &Table{
		ID: "vm-lebench", Title: "LEBench in a guest VM: host-mitigation overhead (paper: ±3%)",
		Columns: []string{"CPU", "overhead"},
	}
	// Two cells per model — the guest suite under host mitigations off
	// and on — so the two boots fan out independently.
	cs := declareCells()
	type vmCells struct{ off, on *engine.Task }
	cells := make([]vmCells, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		off := kernel.BootParams{MitigationsOff: true}.Apply(m, kernel.Defaults(m))
		cells = append(cells, vmCells{
			off: cs.float("vm/lebench-suite", m, off,
				func() (float64, error) { return vmLEBenchSuite(m, off) }),
			on: cs.float("vm/lebench-suite", m, kernel.Defaults(m),
				func() (float64, error) { return vmLEBenchSuite(m, kernel.Defaults(m)) }),
		})
	}
	for i, m := range model.All() {
		base, err := waitF(cells[i].off)
		if err != nil {
			return nil, err
		}
		with, err := waitF(cells[i].on)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{m.Uarch, pct(stats.Overhead(base, with))})
	}
	return t, nil
}

func runVMLFS() (*Table, error) {
	t := &Table{
		ID: "vm-lfs", Title: "LFS in a guest VM: host-mitigation overhead (paper: median <2%)",
		Columns: []string{"CPU", "smallfile", "largefile"},
	}
	cs := declareCells()
	cells := make([][]*engine.Task, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		var per []*engine.Task
		for _, b := range []string{lfs.Smallfile, lfs.Largefile} {
			b := b
			per = append(per, cs.float("vm/lfs/"+b, m, kernel.Mitigations{},
				func() (float64, error) { return lfs.HostMitigationOverhead(m, b) }))
		}
		cells = append(cells, per)
	}
	for i, m := range model.All() {
		row := []string{m.Uarch}
		for _, task := range cells[i] {
			ov, err := waitF(task)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(ov))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runParsecDefault() (*Table, error) {
	t := &Table{
		ID: "parsec-default", Title: "PARSEC under default mitigations (paper: within ±0.5%, never >2%)",
		Columns: []string{"CPU", "swaptions", "facesim", "bodytrack"},
	}
	cs := declareCells()
	cells := make([][]*engine.Task, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		var per []*engine.Task
		for _, b := range parsec.Suite() {
			name := b.Name
			per = append(per, cs.float("parsec/default/"+name, m, kernel.Mitigations{},
				func() (float64, error) { return parsec.DefaultMitigationOverhead(m, name) }))
		}
		cells = append(cells, per)
	}
	for i, m := range model.All() {
		row := []string{m.Uarch}
		for _, task := range cells[i] {
			ov, err := waitF(task)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(ov))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runSecurity() (*Table, error) {
	t := &Table{
		ID: "security", Title: "Attack PoCs: leaks without mitigation / blocked with mitigation",
		Columns: []string{"CPU", "SpectreV1", "SpectreV2", "Meltdown", "MDS", "SSB", "L1TF", "LazyFP"},
	}
	cs := declareCells()
	cells := make([]*engine.Task, 0, len(model.All()))
	for _, m := range model.All() {
		m := m
		cells = append(cells, cs.cell("attacks/security-row", m, kernel.Mitigations{},
			func() (any, error) {
				row, err := securityRow(m)
				if err != nil {
					return nil, err
				}
				return row, nil
			}))
	}
	for _, task := range cells {
		v, err := task.Wait()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, v.([]string))
	}
	return t, nil
}

// securityRow runs every attack PoC on one CPU (one security cell).
func securityRow(m *model.CPU) ([]string, error) {
	row := []string{m.Uarch}
	cell := func(vuln, blocked bool, vulnerable bool) string {
		if !vulnerable {
			return "fixed"
		}
		if vuln && blocked {
			return "leak/blocked"
		}
		if vuln {
			return "leak/NOT-BLOCKED"
		}
		return "NO-LEAK"
	}
	_, v1leak, err := attacks.SpectreV1(m, attacks.V1None)
	if err != nil {
		return nil, err
	}
	_, v1block, err := attacks.SpectreV1(m, attacks.V1IndexMask)
	if err != nil {
		return nil, err
	}
	row = append(row, cell(v1leak, !v1block, true))

	v2leak, err := attacks.SpectreV2(m, attacks.SpectreV2Config{})
	if err != nil {
		return nil, err
	}
	v2block, err := attacks.SpectreV2(m, attacks.SpectreV2Config{IBPBBeforeVictim: true})
	if err != nil {
		return nil, err
	}
	// Zen 3's deep history makes even same-context training fail in
	// this PoC shape; report what we observe.
	if m.Uarch == "Zen 3" {
		row = append(row, fmt.Sprintf("poison=%v", v2leak))
	} else {
		row = append(row, cell(v2leak, !v2block, true))
	}

	_, mdleak, err := attacks.Meltdown(m, attacks.MeltdownConfig{})
	if err != nil {
		return nil, err
	}
	_, mdblock, err := attacks.Meltdown(m, attacks.MeltdownConfig{PTIUnmapped: true})
	if err != nil {
		return nil, err
	}
	row = append(row, cell(mdleak, !mdblock, m.Vulns.Meltdown))

	_, mdsleak, err := attacks.MDS(m, attacks.MDSConfig{})
	if err != nil {
		return nil, err
	}
	_, mdsblock, err := attacks.MDS(m, attacks.MDSConfig{VerwBeforeAttack: true})
	if err != nil {
		return nil, err
	}
	row = append(row, cell(mdsleak, !mdsblock, m.Vulns.MDS))

	_, ssbleak, err := attacks.SSB(m, false)
	if err != nil {
		return nil, err
	}
	_, ssbblock, err := attacks.SSB(m, true)
	if err != nil {
		return nil, err
	}
	row = append(row, cell(ssbleak, !ssbblock, true))

	_, l1leak, err := attacks.L1TF(m, false)
	if err != nil {
		return nil, err
	}
	_, l1block, err := attacks.L1TF(m, true)
	if err != nil {
		return nil, err
	}
	row = append(row, cell(l1leak, !l1block, m.Vulns.L1TF))

	_, lfleak, err := attacks.LazyFP(m, false)
	if err != nil {
		return nil, err
	}
	_, lfblock, err := attacks.LazyFP(m, true)
	if err != nil {
		return nil, err
	}
	row = append(row, cell(lfleak, !lfblock, m.Vulns.LazyFPLeak))

	return row, nil
}

// vmLEBenchSuite runs the guest LEBench suite under one host mitigation
// configuration and returns the geometric mean (one vm-lebench cell).
func vmLEBenchSuite(m *model.CPU, hostMit kernel.Mitigations) (float64, error) {
	var vals []float64
	for _, b := range lebench.Suite() {
		hv := newGuest(m, hostMit)
		cyc, err := lebench.RunOn(hv.C, hv.GuestKernel, b)
		hv.Close()
		if err != nil {
			return 0, err
		}
		vals = append(vals, cyc)
	}
	return stats.GeoMean(vals), nil
}
