package attacks

import (
	"errors"
	"fmt"

	"spectrebench/internal/cpu"
	"spectrebench/internal/isa"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

// ErrInconclusive is wrapped by probe errors when repeated attack-probe
// readings stay in the bimodal threshold region: neither consistently
// positive nor consistently negative. Attack outcomes are probabilistic
// at the probe layer (Canella et al.), so a harness must absorb this
// with a retry — the experiment supervisor re-runs the experiment with
// a reseeded fault injector before reporting "inconclusive" — rather
// than let a borderline reading flip a pass/fail bit.
var ErrInconclusive = errors.New("attacks: probe reading inconclusive")

// Scenario is one column of Tables 9 and 10: where the BTB is trained,
// where the victim indirect branch runs, and whether a system call
// intervenes between training and the victim.
type Scenario int

// Probe scenarios.
const (
	UserToKernelSyscall Scenario = iota // train user, victim kernel (inherently via syscall)
	UserToUserSyscall
	KernelToKernelSyscall
	UserToUserNoSyscall
	KernelToKernelNoSyscall
	numScenarios
)

func (s Scenario) String() string {
	switch s {
	case UserToKernelSyscall:
		return "user→kernel (syscall)"
	case UserToUserSyscall:
		return "user→user (syscall)"
	case KernelToKernelSyscall:
		return "kernel→kernel (syscall)"
	case UserToUserNoSyscall:
		return "user→user (no syscall)"
	case KernelToKernelNoSyscall:
		return "kernel→kernel (no syscall)"
	}
	return fmt.Sprintf("scenario(%d)", int(s))
}

// ProbeResult is one row of Table 9 or 10.
type ProbeResult struct {
	CPU string
	// IBRS reports the SPEC_CTRL.IBRS state during the experiment.
	IBRS bool
	// Supported is false when the part does not implement IBRS at all
	// (Zen in Table 10).
	Supported bool
	// Speculated[s] reports whether training in scenario s steered the
	// victim branch into the divide gadget (observed via the
	// divider-active performance counter, Figure 6).
	Speculated [numScenarios]bool
}

// RunProbe reproduces the §6 methodology on one CPU model: poison the
// branch target buffer from each privilege mode and detect — through
// the divider-active performance counter — whether a victim indirect
// branch in each mode speculatively executes the trained target.
func RunProbe(m *model.CPU, ibrs bool) (*ProbeResult, error) {
	res := &ProbeResult{CPU: m.Uarch, IBRS: ibrs, Supported: true}
	if ibrs && !m.Spec.IBRS {
		res.Supported = false
		return res, nil
	}
	var sc uint64
	if ibrs {
		sc = cpu.SpecCtrlIBRS
	}
	for s := Scenario(0); s < numScenarios; s++ {
		hit, err := runScenario(m, kernel.V2Off, &sc, s)
		if err != nil {
			return nil, fmt.Errorf("probe %s %v: %w", m.Uarch, s, err)
		}
		res.Speculated[s] = hit
	}
	return res, nil
}

// resultSlot is where the probe program accumulates divider deltas.
const resultSlot = kernel.UserDataBase + 0x3e00

// spectreV2Kernel is the user→kernel column of the probe on a kernel
// booted with the given Spectre V2 mode: user code poisons the BTB, and
// the victim branch, compiled through the kernel's own lowering, runs
// in kernel mode after a syscall.
func spectreV2Kernel(m *model.CPU, mit kernel.Mitigations) (bool, error) {
	return runScenario(m, mit.SpectreV2, nil, UserToKernelSyscall)
}

// runScenario runs one (train-mode, victim-mode, syscall) combination
// over several attempts. The kernel boots with every mitigation off
// except the Spectre V2 mode v2, which compiles the probed branch;
// specCtrl, when non-nil, pins IA32_SPEC_CTRL (the Table 10 IBRS
// setting) instead of the mode's own MSR policy.
//
// Without fault injection the simulator is deterministic, so three
// attempts with any positive reading decide the outcome (the original
// methodology). Under fault injection the probe becomes retry-aware: it
// escalates to more attempts and requires a clear majority; readings
// stuck in the bimodal threshold region return an error wrapping
// ErrInconclusive instead of guessing.
func runScenario(m *model.CPU, v2 kernel.SpectreV2Mode, specCtrl *uint64, s Scenario) (bool, error) {
	c := cpu.New(m)
	defer c.Recycle()
	// Mitigations off: the probe studies the hardware, not the kernel.
	mit := kernel.BootParams{MitigationsOff: true}.Apply(m, kernel.Defaults(m))
	mit.SpectreV2 = v2
	k := kernel.New(c, mit)
	k.SpecCtrlOverride = specCtrl

	prog := buildProbeProgram(s, v2)
	attempts := 3
	if c.FI != nil {
		attempts = 5
	}
	hits := 0
	for attempt := 0; attempt < attempts; attempt++ {
		p := k.NewProcess(fmt.Sprintf("probe-%d-%d", s, attempt), prog)
		if err := k.RunProcessToCompletion(10_000_000); err != nil {
			return false, fmt.Errorf("probe attempt %d: %w", attempt, err)
		}
		if c.Phys.Read64((uint64(p.PID)<<32)+resultSlot) > 0 {
			hits++
		}
	}
	if c.FI == nil {
		return hits > 0, nil
	}
	hit, ok := classifyHits(hits, attempts)
	if !ok {
		return false, fmt.Errorf("%w: scenario %v: %d/%d positive readings",
			ErrInconclusive, s, hits, attempts)
	}
	return hit, nil
}

// classifyHits maps a positive-reading count onto (outcome, conclusive).
// All-negative and majority-positive readings are conclusive; a thin
// positive tail (under injected probe jitter a genuine signal repeats,
// noise does not) is the bimodal threshold region.
func classifyHits(hits, attempts int) (hit, conclusive bool) {
	switch {
	case hits == 0:
		return false, true
	case hits*2 > attempts:
		return true, true
	default:
		return false, false
	}
}

// buildProbeProgram assembles the Figure 6 experiment for one scenario,
// with the probed indirect call emitted through the kernel's lowering
// for Spectre V2 mode v2.
//
// The probed indirect branch lives at a fixed address reachable from
// both modes (the kernel enters it through SYS_KMOD; there is no SMEP
// in the model, as on the paper's pre-2020 kernels). Register roles:
//
//	R11 = branch target (victim_target while training, nop_target for
//	      the victim run); targets return with RET
//	R13 = driver continuation after the site completes
//	R6  = saved kernel-exit address inside kernel drivers (the KMOD
//	      ABI passes it in R10)
func buildProbeProgram(s Scenario, v2 kernel.SpectreV2Mode) *isa.Program {
	a := isa.NewAsm()
	a.Jmp("driver")

	// ---- the probed branch site (fixed VA across scenarios) ----------
	// A 128-iteration history-filling loop precedes the indirect branch,
	// like the original probe; it erases history differences on parts
	// with shallow BTB indexing but not on Zen 3.
	a.Label("branch_site")
	a.MovI(isa.R12, 128)
	a.Label("bhb_fill")
	a.SubI(isa.R12, 1)
	a.CmpI(isa.R12, 0)
	a.Jne("bhb_fill")
	kernel.EmitIndirectCall(a, v2, isa.R11)
	a.Label("site_cont")
	a.JmpInd(isa.R13)
	if v2 == kernel.V2RetpolineGeneric {
		kernel.EmitRetpolineThunk(a, isa.R11)
	}

	a.Label("victim_target")
	a.MovI(isa.R1, 12345)
	a.MovI(isa.R2, 6789)
	a.Div(isa.R1, isa.R2)
	a.Ret()

	a.Label("nop_target")
	a.Ret()

	// ---- a history scrambler run between training and measurement ----
	// (the "potentially overwrite the entry" section of Figure 6: real
	// code between the phases always differs from the training loop).
	a.Label("spacer")
	a.MovI(isa.R12, 100)
	a.Label("spacer_loop")
	a.SubI(isa.R12, 1)
	a.CmpI(isa.R12, 0)
	a.Jne("spacer_loop")
	a.JmpInd(isa.R13)

	// ---- kernel-mode helpers (entered via SYS_KMOD) -------------------
	// ktrain: run the site 48 times with the victim target.
	a.Label("ktrain")
	a.Mov(isa.R6, isa.R10) // save the kernel-exit address
	a.MovI(isa.R9, 48)
	a.Label("ktrain_loop")
	a.MovLabel(isa.R11, "victim_target")
	a.MovLabel(isa.R13, "ktrain_next")
	a.Jmp("branch_site")
	a.Label("ktrain_next")
	a.SubI(isa.R9, 1)
	a.CmpI(isa.R9, 0)
	a.Jne("ktrain_loop")
	a.JmpInd(isa.R6)

	// ktrainspacer_measure: train, spacer, measure — all within one
	// kernel visit (the kernel→kernel no-syscall column).
	a.Label("ktrain_measure")
	a.Mov(isa.R6, isa.R10)
	a.MovI(isa.R9, 48)
	a.Label("ktm_loop")
	a.MovLabel(isa.R11, "victim_target")
	a.MovLabel(isa.R13, "ktm_next")
	a.Jmp("branch_site")
	a.Label("ktm_next")
	a.SubI(isa.R9, 1)
	a.CmpI(isa.R9, 0)
	a.Jne("ktm_loop")
	a.MovLabel(isa.R13, "ktm_spaced")
	a.Jmp("spacer")
	a.Label("ktm_spaced")
	a.MovLabel(isa.R11, "nop_target")
	a.MovLabel(isa.R13, "ktm_done")
	a.Rdpmc(isa.R8, 2) // ArithDividerActive
	a.Jmp("branch_site")
	a.Label("ktm_done")
	a.Rdpmc(isa.R9, 2)
	a.Sub(isa.R9, isa.R8)
	a.MovI(isa.R12, resultSlot)
	a.Store(isa.R12, 0, isa.R9)
	a.JmpInd(isa.R6)

	// kmeasure: measure the victim branch in kernel mode.
	a.Label("kmeasure")
	a.Mov(isa.R6, isa.R10)
	a.MovLabel(isa.R11, "nop_target")
	a.MovLabel(isa.R13, "kmeasure_done")
	a.Rdpmc(isa.R8, 2)
	a.Jmp("branch_site")
	a.Label("kmeasure_done")
	a.Rdpmc(isa.R9, 2)
	a.Sub(isa.R9, isa.R8)
	a.MovI(isa.R12, resultSlot)
	a.Store(isa.R12, 0, isa.R9)
	a.JmpInd(isa.R6)

	// ---- user-mode building blocks ------------------------------------
	// utrain: run the site 48 times in user mode.
	a.Label("utrain")
	a.MovI(isa.R9, 48)
	a.Label("utrain_loop")
	a.MovLabel(isa.R11, "victim_target")
	a.MovLabel(isa.R13, "utrain_next")
	a.Jmp("branch_site")
	a.Label("utrain_next")
	a.SubI(isa.R9, 1)
	a.CmpI(isa.R9, 0)
	a.Jne("utrain_loop")
	a.Ret()

	// umeasure: measure in user mode, accumulating into resultSlot.
	a.Label("umeasure")
	a.MovLabel(isa.R11, "nop_target")
	a.MovLabel(isa.R13, "umeasure_done")
	a.Rdpmc(isa.R8, 2)
	a.Jmp("branch_site")
	a.Label("umeasure_done")
	a.Rdpmc(isa.R9, 2)
	a.Sub(isa.R9, isa.R8)
	a.MovI(isa.R12, resultSlot)
	a.Store(isa.R12, 0, isa.R9)
	a.Ret()

	// uspacer: scramble history in user mode.
	a.Label("uspacer")
	a.MovLabel(isa.R13, "uspacer_done")
	a.Jmp("spacer")
	a.Label("uspacer_done")
	a.Ret()

	// ---- the per-scenario driver ---------------------------------------
	a.Label("driver")
	switch s {
	case UserToKernelSyscall:
		a.Call("utrain")
		a.Call("uspacer")
		emitKmod(a, "kmeasure")
	case UserToUserSyscall:
		a.Call("utrain")
		a.Call("uspacer")
		emitProbeSyscall(a, kernel.SysGetPID)
		a.Call("umeasure")
	case KernelToKernelSyscall:
		emitKmod(a, "ktrain")
		a.Call("uspacer")
		emitProbeSyscall(a, kernel.SysGetPID) // the intervening syscall
		emitKmod(a, "kmeasure")
	case UserToUserNoSyscall:
		a.Call("utrain")
		a.Call("uspacer")
		a.Call("umeasure")
	case KernelToKernelNoSyscall:
		emitKmod(a, "ktrain_measure")
	}
	a.MovI(isa.R1, 0)
	emitProbeSyscall(a, kernel.SysExit)

	return a.MustAssemble(kernel.UserCodeBase)
}

func emitProbeSyscall(a *isa.Asm, nr int64) {
	a.MovI(isa.R7, nr)
	a.Syscall()
}

// emitKmod invokes SYS_KMOD targeting the named in-program label, which
// then runs in kernel mode.
func emitKmod(a *isa.Asm, label string) {
	a.MovLabel(isa.R2, label)
	emitProbeSyscall(a, kernel.SysKMod)
}
