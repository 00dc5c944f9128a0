package harness

import (
	"fmt"
	"strconv"

	"spectrebench/internal/core"
	"spectrebench/internal/engine"
	"spectrebench/internal/isa"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

func init() {
	register(Experiment{
		ID: "ablations", Paper: "§3.1 / §5.1 / §5.3",
		Title: "Mechanism ablations: PCIDs under PTI, retpoline flavour, lazy vs eager FPU, RSB stuffing",
		Run:   runAblations,
	})
}

// runAblations measures the mechanism-level asides the paper explains
// its trends with: PCIDs make PTI cheap (§5.1), Linux moved AMD parts
// from AMD to generic retpolines (§5.3), eager FPU switching is also a
// speed-up (§3.1), and RSB stuffing on context switch costs little
// (§5.3). Each row is a variant arm against a baseline arm of one
// workload on one CPU. The LEBench arms go through Figure 2's own
// "lebench/run" cells, so in a batch run the defaults arms cost no
// extra simulation.
func runAblations() (*Table, error) {
	cs := declareCells()
	// An arm gathers one measurement. Both kinds submit their cell when
	// the row is declared, so every arm's cell is in flight before the
	// first is gathered.
	type arm func() (float64, error)
	geo := func(m *model.CPU, mit kernel.Mitigations) arm {
		t := cs.lebenchCell(m, mit)
		return func() (float64, error) { return cs.lebenchGeoOf(t) }
	}
	program := func(workload string, m *model.CPU, mit kernel.Mitigations, noPCID bool, prog *isa.Program) arm {
		t := programCell(cs, workload, m, mit, noPCID, prog)
		return func() (float64, error) { return cs.waitF(t) }
	}
	bw, skl, zen2 := model.Broadwell(), model.SkylakeClient(), model.Zen2()
	rows := []struct {
		name, paper, workload string
		m                     *model.CPU
		baseArm, variantArm   string
		base, variant         arm
	}{
		{"PCIDs under PTI", "§5.1", "getpid + 16-page walk", bw, "defaults", "PCIDs off",
			program("ablation/pcid-walk", bw, kernel.Defaults(bw), false, pcidProgram()),
			program("ablation/pcid-walk", bw, kernel.Defaults(bw), true, pcidProgram())},
		{"retpoline flavour", "§5.3", "LEBench geomean", zen2, "defaults (AMD)", "spectre_v2=retpoline,generic",
			geo(zen2, kernel.Defaults(zen2)),
			geo(zen2, kernel.BootParams{SpectreV2: "retpoline,generic"}.Apply(zen2, kernel.Defaults(zen2)))},
		{"FPU switching", "§3.1", "FPU ping-pong (fork/yield)", skl, "defaults (eager)", "eagerfpu=off (lazy)",
			program("ablation/fpu-pingpong", skl, kernel.Defaults(skl), false, fpuProgram()),
			program("ablation/fpu-pingpong", skl, kernel.BootParams{LazyFPU: true}.Apply(skl, kernel.Defaults(skl)), false, fpuProgram())},
		{"RSB stuffing", "§5.3", "LEBench geomean", bw, "no RSB stuffing", "defaults",
			geo(bw, kernel.BootParams{NoRSBStuff: true}.Apply(bw, kernel.Defaults(bw))),
			geo(bw, kernel.Defaults(bw))},
	}
	t := &Table{
		ID: "ablations", Title: "Mechanism ablations: variant arm vs baseline arm (simulated cycles)",
		Columns: []string{"ablation", "paper", "CPU", "workload", "baseline", "variant",
			"baseline cycles", "variant cycles", "change"},
	}
	for _, r := range rows {
		base, err := r.base()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		variant, err := r.variant()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		t.Rows = append(t.Rows, []string{
			r.name, r.paper, r.m.Uarch, r.workload, r.baseArm, r.variantArm,
			cyc(base), cyc(variant), fmt.Sprintf("%+.2f%%", (variant/base-1)*100),
		})
	}
	t.Notes = append(t.Notes,
		"forced SSBD on Zen 3 swaptions is fig5's own cell, so it is not repeated here",
		"without PCIDs every PTI page-table swap flushes the TLB; with them PTI's TLB cost is marginal (§5.1)",
		"lazy switching pays a #NM trap on the first FPU use after every reschedule; eager switching pays xsaveopt")
	return t, nil
}

// programCell runs prog as one process to completion on m booted under
// mit, optionally with PCIDs off, and yields the core's cycles.
func programCell(cs *cellSet, workload string, m *model.CPU, mit kernel.Mitigations, noPCID bool, prog *isa.Program) *engine.Task {
	return cs.raw(workload, m.Uarch, mitConfig(mit)+"|nopcid="+strconv.FormatBool(noPCID), func() (any, error) {
		mach := core.Boot(m, mit)
		mach.CPU.NoPCID = noPCID
		mach.Kernel.NewProcess(workload, prog)
		if err := mach.Kernel.RunProcessToCompletion(10_000_000); err != nil {
			return nil, err
		}
		return float64(mach.CPU.Cycles), nil
	})
}

// pcidProgram loops over a syscall followed by a walk of 16 data pages:
// under PTI each syscall swaps CR3 twice, and without PCIDs each swap
// flushes the translations the walk needs.
func pcidProgram() *isa.Program {
	a := isa.NewAsm()
	a.MovI(isa.R9, 60)
	a.Label("loop")
	a.MovI(isa.R7, kernel.SysGetPID)
	a.Syscall()
	a.MovI(isa.R1, kernel.UserDataBase)
	a.MovI(isa.R2, 0)
	a.Label("walk")
	a.Load(isa.R3, isa.R1, 0)
	a.AddI(isa.R1, 4096)
	a.AddI(isa.R2, 1)
	a.CmpI(isa.R2, 16)
	a.Jne("walk")
	return exitAfterLoop(a)
}

// fpuProgram forks into two processes that each use the FPU between
// yields, so under lazy switching every reschedule costs a #NM trap.
func fpuProgram() *isa.Program {
	a := isa.NewAsm()
	a.MovI(isa.R7, kernel.SysFork)
	a.Syscall()
	a.MovI(isa.R9, 40)
	a.Label("loop")
	a.FMovI(0, 1.5)
	a.FAdd(0, 0)
	a.MovI(isa.R7, kernel.SysYield)
	a.Syscall()
	return exitAfterLoop(a)
}

// exitAfterLoop closes a "loop" counted down in R9, then exits.
func exitAfterLoop(a *isa.Asm) *isa.Program {
	a.SubI(isa.R9, 1)
	a.CmpI(isa.R9, 0)
	a.Jne("loop")
	a.MovI(isa.R1, 0)
	a.MovI(isa.R7, kernel.SysExit)
	a.Syscall()
	return a.MustAssemble(kernel.UserCodeBase)
}
