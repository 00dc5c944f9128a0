package cpu

import (
	"errors"
	"fmt"
	"math"

	"spectrebench/internal/branch"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
	"spectrebench/internal/pmc"
)

// ErrHalted is returned by Step and Run when the core has executed HLT.
var ErrHalted = errors.New("cpu: halted")

// Step executes one architectural instruction (including any transient
// windows it triggers and any trap delivery it requires).
func (c *Core) Step() error {
	if c.halted {
		return ErrHalted
	}
	if c.CycleBudget != 0 && c.Cycles >= c.CycleBudget {
		c.flushCycleTelemetry()
		return c.budgetErr()
	}
	if c.interrupted.Load() {
		c.interrupted.Store(false)
		c.flushCycleTelemetry()
		return c.interruptedErr()
	}
	// Telemetry cadence: every 4096 retired instructions. Instret == 0
	// is excluded — a fresh core has nothing to publish and the very
	// first step must not pay the flush.
	if c.Instret&0xfff == 0 && c.Instret != 0 {
		c.flushCycleTelemetry()
	}

	// Magic host-Go thunks preempt fetch. Cores with no registered
	// thunks (guest user-mode cores) skip the map probe entirely.
	if c.code.hasThunks {
		if fn, ok := c.Thunks[c.PC]; ok {
			fn(c)
			return nil
		}
	}

	in, f := c.fetch(c.PC)
	if f != nil {
		return c.deliverTrap(*f)
	}

	nextPC, f := c.execute(in)
	if f != nil {
		return c.deliverTrap(*f)
	}

	if c.OnRetire != nil {
		c.OnRetire(c.PC, in)
	}
	c.PC = nextPC
	c.Instret++
	c.PMC.Add(pmc.Instructions, 1)
	return nil
}

// budgetErr builds the watchdog error Step and StepBlock return when the
// cycle budget is exhausted.
func (c *Core) budgetErr() error {
	return fmt.Errorf("%w: %d cycles (budget %d) at pc=%#x",
		ErrCycleBudget, c.Cycles, c.CycleBudget, c.PC)
}

// interruptedErr builds the error returned after consuming an Interrupt.
func (c *Core) interruptedErr() error {
	return fmt.Errorf("%w at pc=%#x", ErrInterrupted, c.PC)
}

// Run executes up to maxSteps instructions, stopping early on HLT or an
// unhandled fault. It drives the decoded-block fast path when the core's
// reference modes are off; the observable behaviour is identical to
// calling Step maxSteps times.
func (c *Core) Run(maxSteps int) error {
	for i := 0; i < maxSteps; {
		n, err := c.StepBlock(maxSteps - i)
		if err != nil {
			return err
		}
		i += n
	}
	return nil
}

// RunUntilHalt executes until HLT, an unhandled fault, or the step limit.
func (c *Core) RunUntilHalt(maxSteps int) error {
	for i := 0; i < maxSteps; {
		n, err := c.StepBlock(maxSteps - i)
		if err != nil {
			if errors.Is(err, ErrHalted) {
				return nil
			}
			return err
		}
		i += n
	}
	return fmt.Errorf("cpu: no HLT within %d steps (pc=%#x)", maxSteps, c.PC)
}

// fetch translates PC and locates the instruction.
func (c *Core) fetch(pc uint64) (*isa.Instruction, *Fault) {
	_, _, mf := c.xlate(pc, mem.AccessFetch, true)
	if mf != mem.FaultNone {
		return nil, &Fault{Kind: FaultPage, VA: pc, Access: mem.AccessFetch, PC: pc}
	}
	in := c.findInstruction(pc)
	if in == nil {
		return nil, &Fault{Kind: FaultInvalidOp, PC: pc}
	}
	return in, nil
}

// deliverTrap charges trap-entry cost and invokes the kernel hook.
func (c *Core) deliverTrap(f Fault) error {
	c.charge(c.Model.Costs.Trap)
	if c.OnTrap == nil {
		c.halted = true
		return f
	}
	prevPriv := c.Priv
	c.Priv = PrivKernel
	action := c.OnTrap(c, f)
	c.charge(c.Model.Costs.Iret)
	switch action {
	case TrapRetry:
		c.Priv = prevPriv
		return nil
	case TrapSkip:
		c.Priv = prevPriv
		c.PC += isa.InstrBytes
		return nil
	case TrapContext:
		// The hook switched contexts (scheduler); its state stands.
		return nil
	default:
		c.halted = true
		return f
	}
}

// btbMode maps the privilege level to a BTB tag.
func (c *Core) btbMode() branch.Mode {
	if c.Priv == PrivKernel {
		return branch.ModeKernel
	}
	return branch.ModeUser
}

// indirectPredictionAllowed applies the IBRS policy matrix from §6.
func (c *Core) indirectPredictionAllowed() (allowed bool, extraCost uint64) {
	if !c.SpecEnabled {
		return false, 0
	}
	if !c.IBRSActive() {
		return true, 0
	}
	spec := c.Model.Spec
	if !spec.EIBRS {
		if spec.IBRSBlocksAllIndirect {
			// Pre-eIBRS parts: IBRS disables indirect prediction in
			// every mode (Table 10's blank rows) at IBRSDelta cycles
			// per branch (Table 5).
			return false, c.Model.Costs.IBRSDelta
		}
		return true, c.Model.Costs.IBRSDelta
	}
	// eIBRS parts: prediction continues, mode-partitioned. Ice Lake
	// Client additionally stops kernel-mode prediction (Table 10).
	if spec.IBRSBlocksKernelKernel && c.Priv == PrivKernel {
		return false, c.Model.Costs.IBRSDelta
	}
	return true, c.Model.Costs.IBRSDelta
}

// execute runs one instruction. It returns the next PC, or a fault.
func (c *Core) execute(in *isa.Instruction) (uint64, *Fault) {
	cost := &c.Model.Costs
	next := c.PC + isa.InstrBytes

	// Lazy-FPU trap check (the LazyFP attack surface).
	if in.Op.IsFPU() && !c.FPUEnabled {
		if c.SpecEnabled && c.Model.Vulns.LazyFPLeak {
			// The FPU op and its dependents execute transiently with
			// the stale registers of the previous FPU owner before
			// the #NM trap is taken.
			c.speculate(c.PC, func(t *txn) { t.fpuOK = true })
		}
		c.charge(cost.FPTrap)
		return 0, &Fault{Kind: FaultFPUDisabled, PC: c.PC}
	}

	switch in.Op {
	case isa.NOP:
		c.charge(cost.ALU)
	case isa.HLT:
		c.charge(1)
		c.halted = true
		c.flushCycleTelemetry()

	case isa.MOVI:
		c.charge(cost.ALU)
		c.Regs[in.Dst] = uint64(in.Imm)
	case isa.MOV:
		c.charge(cost.ALU)
		c.Regs[in.Dst] = c.Regs[in.Src1]
	case isa.ADD:
		c.charge(cost.ALU)
		c.Regs[in.Dst] += c.Regs[in.Src1]
	case isa.ADDI:
		c.charge(cost.ALU)
		c.Regs[in.Dst] += uint64(in.Imm)
	case isa.SUB:
		c.charge(cost.ALU)
		c.Regs[in.Dst] -= c.Regs[in.Src1]
	case isa.SUBI:
		c.charge(cost.ALU)
		c.Regs[in.Dst] -= uint64(in.Imm)
	case isa.MUL:
		c.charge(cost.Mul)
		c.Regs[in.Dst] *= c.Regs[in.Src1]
	case isa.DIV:
		c.charge(cost.Div)
		c.PMC.Add(pmc.ArithDividerActive, cost.Div)
		d := int64(c.Regs[in.Src1])
		if d == 0 {
			return 0, &Fault{Kind: FaultDivide, PC: c.PC}
		}
		c.Regs[in.Dst] = uint64(int64(c.Regs[in.Dst]) / d)
	case isa.AND:
		c.charge(cost.ALU)
		c.Regs[in.Dst] &= c.Regs[in.Src1]
	case isa.ANDI:
		c.charge(cost.ALU)
		c.Regs[in.Dst] &= uint64(in.Imm)
	case isa.OR:
		c.charge(cost.ALU)
		c.Regs[in.Dst] |= c.Regs[in.Src1]
	case isa.XOR:
		c.charge(cost.ALU)
		c.Regs[in.Dst] ^= c.Regs[in.Src1]
	case isa.SHLI:
		c.charge(cost.ALU)
		c.Regs[in.Dst] <<= uint64(in.Imm)
	case isa.SHRI:
		c.charge(cost.ALU)
		c.Regs[in.Dst] >>= uint64(in.Imm)

	case isa.CMP:
		c.charge(cost.ALU)
		a, b := c.Regs[in.Dst], c.Regs[in.Src1]
		c.FlagEQ, c.FlagLT = a == b, a < b
	case isa.CMPI:
		c.charge(cost.ALU)
		a, b := c.Regs[in.Dst], uint64(in.Imm)
		c.FlagEQ, c.FlagLT = a == b, a < b

	case isa.CMOVEQ:
		c.chargeCmov()
		if c.FlagEQ {
			c.Regs[in.Dst] = c.Regs[in.Src1]
		}
	case isa.CMOVNE:
		c.chargeCmov()
		if !c.FlagEQ {
			c.Regs[in.Dst] = c.Regs[in.Src1]
		}
	case isa.CMOVLT:
		c.chargeCmov()
		if c.FlagLT {
			c.Regs[in.Dst] = c.Regs[in.Src1]
		}
	case isa.CMOVGE:
		c.chargeCmov()
		if !c.FlagLT {
			c.Regs[in.Dst] = c.Regs[in.Src1]
		}

	case isa.LOAD:
		va := c.Regs[in.Src1] + uint64(in.Imm)
		v, stale, bypass, f := c.load(va)
		if f != nil {
			// Run the Meltdown-family transient window with the
			// destination register poisoned, then deliver the fault.
			leak := c.pendingLeak
			c.pendingLeak = pendingLeak{}
			if leaked, ok := c.leakValue(leak); ok {
				dst := in.Dst
				c.speculate(c.PC+isa.InstrBytes, func(t *txn) { t.regs[dst] = leaked })
			}
			return 0, f
		}
		if bypass && c.disambiguationBypass(c.PC) {
			// Speculative Store Bypass: dependents transiently run
			// with the stale value until disambiguation corrects it
			// with a memory-ordering machine clear.
			dst := in.Dst
			c.speculate(c.PC+isa.InstrBytes, func(t *txn) { t.regs[dst] = stale })
			c.PMC.Add(pmc.MachineClears, 1)
		}
		c.Regs[in.Dst] = v

	case isa.STORE:
		va := c.Regs[in.Src1] + uint64(in.Imm)
		if f := c.store(va, c.Regs[in.Src2]); f != nil {
			return 0, f
		}

	case isa.CLFLUSH:
		c.charge(40)
		va := c.Regs[in.Src1] + uint64(in.Imm)
		pa, _, mf := c.xlate(va, mem.AccessRead, true)
		if mf != mem.FaultNone {
			return 0, &Fault{Kind: FaultPage, VA: va, Access: mem.AccessRead, PC: c.PC}
		}
		c.L1.Flush(pa)
	case isa.PREFETCH:
		c.charge(cost.ALU)
		va := c.Regs[in.Src1] + uint64(in.Imm)
		if pa, _, mf := c.xlate(va, mem.AccessRead, false); mf == mem.FaultNone {
			c.L1.Touch(pa)
		}

	case isa.JMP:
		c.charge(cost.ALU)
		c.BHB.Record(c.PC, in.Target)
		next = in.Target

	case isa.JEQ, isa.JNE, isa.JLT, isa.JGE:
		c.charge(cost.ALU)
		taken := c.condTaken(in.Op)
		predicted := c.Cond.Update(c.PC, taken)
		if predicted != taken {
			// Misprediction: the wrong path runs transiently — the
			// Spectre V1 window.
			wrongPC := c.PC + isa.InstrBytes
			if predicted {
				wrongPC = in.Target
			}
			c.speculate(wrongPC, nil)
			c.charge(cost.Mispredict)
			c.PMC.Add(pmc.BranchMispredicts, 1)
		}
		if taken {
			c.BHB.Record(c.PC, in.Target)
			next = in.Target
		}

	case isa.CALL:
		c.charge(2 * cost.ALU)
		ret := c.PC + isa.InstrBytes
		if f := c.push(ret); f != nil {
			return 0, f
		}
		c.RSB.Push(ret)
		c.BHB.Record(c.PC, in.Target)
		next = in.Target

	case isa.RET:
		c.charge(2 * cost.ALU)
		actual, f := c.pop()
		if f != nil {
			return 0, f
		}
		predicted, ok := c.RSB.Pop()
		if ok && predicted != actual && c.SpecEnabled {
			// The RSB mispredicts: execution transiently continues at
			// the stale return address. This is both the SpectreRSB
			// channel and the mechanism generic retpolines exploit to
			// trap speculation in a benign loop.
			c.speculate(predicted, nil)
			c.charge(cost.Mispredict)
			c.PMC.Add(pmc.BranchMispredicts, 1)
		}
		c.BHB.Record(c.PC, actual)
		next = actual

	case isa.CALLIND, isa.JMPIND:
		actual := c.Regs[in.Src1]
		c.charge(cost.IndirectBase)
		allowed, extra := c.indirectPredictionAllowed()
		c.charge(extra)
		if allowed {
			mode := c.btbMode()
			predicted, ok := c.BTB.Predict(c.PC, c.BHB, mode)
			c.BTB.Predictions++
			if ok && predicted != actual {
				// Spectre V2: speculation at the poisoned target.
				c.speculate(predicted, nil)
				c.charge(cost.Mispredict)
				c.PMC.Add(pmc.IndirectMispredicts, 1)
				c.PMC.Add(pmc.BranchMispredicts, 1)
				c.BTB.Mispredicts++
			} else if !ok {
				c.charge(cost.Mispredict)
				c.PMC.Add(pmc.IndirectMispredicts, 1)
				c.PMC.Add(pmc.BranchMispredicts, 1)
				c.BTB.Mispredicts++
			}
			c.BTB.Update(c.PC, c.BHB, mode, actual)
		}
		if in.Op == isa.CALLIND {
			ret := c.PC + isa.InstrBytes
			if f := c.push(ret); f != nil {
				return 0, f
			}
			c.RSB.Push(ret)
		}
		c.BHB.Record(c.PC, actual)
		next = actual

	case isa.LFENCE:
		// lfence waits for outstanding loads; with none in flight it is
		// nearly free (§5.4: "the cost will heavily depend on the other
		// loads in flight"). This is why the lfence-after-swapgs kernel
		// entry mitigation has no measurable LEBench impact (§4.6).
		switch {
		case c.Model.Costs.RetpolineAMDOK && c.nextOpIsIndirect():
			// The lfence+jmp AMD retpoline pair: the fence overlaps
			// with branch resolution; Table 5 measures the pair's
			// delta directly (0 on Zen 2).
			c.charge(c.Model.Costs.RetpolineAMD)
		case c.Instret-c.lastLoadRet > 8:
			c.charge(4)
		default:
			c.charge(cost.Lfence)
		}
	case isa.MFENCE:
		c.charge(cost.Lfence + 15)
		c.SB.Drain()
	case isa.SFENCE:
		c.charge(6)
		c.SB.Drain()
	case isa.PAUSE:
		c.charge(8)

	case isa.VERW:
		if c.Model.Vulns.MDS {
			// MD_CLEAR microcode: scrub fill buffers, load ports and
			// the store buffer (Table 4's vulnerable-part cost).
			c.charge(cost.VerwClear)
			if c.FI.Fire(faultinject.FBDrainDelay) {
				// Injected weather: the drain hits a busy buffer and
				// stalls for extra cycles. The scrub still completes —
				// the mitigation's security effect is never weakened.
				c.charge(c.FI.Amount(faultinject.FBDrainDelay, 96))
			}
			c.FB.Clear()
			c.SB.Drain()
		} else {
			c.charge(cost.VerwLegacy)
		}

	case isa.SYSCALL:
		if c.Priv != PrivUser {
			return 0, &Fault{Kind: FaultInvalidOp, PC: c.PC}
		}
		c.charge(cost.Syscall)
		c.SavedUserPC = c.PC + isa.InstrBytes
		c.Priv = PrivKernel
		c.kernelEntries++
		c.eibrsBimodalEntry()
		if lstar := c.msrs[MSRLStar]; lstar != 0 {
			next = lstar
		} else if c.OnSyscall != nil {
			c.OnSyscall(c)
			c.Priv = PrivUser
			next = c.SavedUserPC
		} else {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}

	case isa.SYSRET:
		if c.Priv != PrivKernel {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}
		c.charge(cost.Sysret)
		c.Priv = PrivUser
		next = c.SavedUserPC

	case isa.SWAPGS:
		if c.Priv != PrivKernel {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}
		c.charge(cost.Swapgs)
		c.GSSwapped = !c.GSSwapped

	case isa.IRET:
		if c.Priv != PrivKernel {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}
		c.charge(cost.Iret)
		c.Priv = PrivUser
		next = c.SavedUserPC

	case isa.WRMSR:
		if c.Priv != PrivKernel {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}
		idx := uint32(in.Imm)
		switch idx {
		case MSRSpecCtrl:
			c.charge(cost.WrmsrSpecCtrl)
		case MSRPredCmd:
			c.charge(cost.IBPB)
		default:
			c.charge(36)
		}
		c.writeMSR(idx, c.Regs[in.Src1])

	case isa.RDMSR:
		if c.Priv != PrivKernel {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}
		c.charge(30)
		c.Regs[in.Dst] = c.msrs[uint32(in.Imm)]

	case isa.RDTSC:
		c.charge(12)
		c.Regs[in.Dst] = c.Cycles
		if c.FI.Fire(faultinject.ProbeJitter) {
			// Injected weather: timestamp reads wobble by a few cycles,
			// like SMI noise under a real timing probe.
			c.Regs[in.Dst] += c.FI.Amount(faultinject.ProbeJitter, 8)
		}

	case isa.RDPMC:
		c.charge(12)
		c.Regs[in.Dst] = c.PMC.Read(pmc.Counter(in.Imm))

	case isa.MOVCR3:
		if c.Priv != PrivKernel {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}
		c.charge(c.swapCR3Cost())
		c.CR3 = c.Regs[in.Src1]
		if c.NoPCID {
			// Without PCIDs a CR3 write flushes all non-global
			// translations — the §5.1 TLB-pressure ablation.
			c.TLB.FlushNonGlobal()
		}
		// With PCID (all evaluated parts), tagged entries coexist.

	case isa.RDCR3:
		if c.Priv != PrivKernel {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}
		c.charge(cost.ALU)
		c.Regs[in.Dst] = c.CR3

	case isa.INVPCID:
		if c.Priv != PrivKernel {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}
		c.charge(220)
		switch in.Imm {
		case 2:
			c.TLB.FlushAll()
		default:
			c.TLB.FlushPCID(uint16(c.Regs[in.Src1]))
		}

	case isa.FMOVI:
		c.charge(cost.FPU)
		c.FRegs[in.FDst] = in.FImm
	case isa.FADD:
		c.charge(cost.FPU)
		c.FRegs[in.FDst] += c.FRegs[in.FSrc]
	case isa.FMUL:
		c.charge(cost.FPU)
		c.FRegs[in.FDst] *= c.FRegs[in.FSrc]
	case isa.FDIV:
		c.charge(cost.FDiv)
		c.PMC.Add(pmc.ArithDividerActive, cost.FDiv)
		c.FRegs[in.FDst] /= c.FRegs[in.FSrc]
	case isa.FLOAD:
		va := c.Regs[in.Src1] + uint64(in.Imm)
		v, _, _, f := c.load(va)
		if f != nil {
			return 0, f
		}
		c.FRegs[in.FDst] = fbits(v)
	case isa.FSTOR:
		va := c.Regs[in.Src1] + uint64(in.Imm)
		if f := c.store(va, bitsF(c.FRegs[in.FSrc])); f != nil {
			return 0, f
		}
	case isa.FTOI:
		c.charge(cost.FPU)
		c.Regs[in.Dst] = uint64(int64(c.FRegs[in.FSrc]))
	case isa.ITOF:
		c.charge(cost.FPU)
		c.FRegs[in.FDst] = float64(int64(c.Regs[in.Src1]))

	case isa.XSAVE:
		if c.Priv != PrivKernel {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}
		c.charge(cost.Xsave)
		base := c.Regs[in.Src1]
		for i, f := range c.FRegs {
			pa, _, mf := c.xlate(base+uint64(i)*8, mem.AccessWrite, false)
			if mf != mem.FaultNone {
				return 0, &Fault{Kind: FaultPage, VA: base, Access: mem.AccessWrite, PC: c.PC}
			}
			c.Phys.Write64(pa, bitsF(f))
		}
	case isa.XRSTOR:
		if c.Priv != PrivKernel {
			return 0, &Fault{Kind: FaultGP, PC: c.PC}
		}
		c.charge(cost.Xsave)
		base := c.Regs[in.Src1]
		for i := range c.FRegs {
			pa, _, mf := c.xlate(base+uint64(i)*8, mem.AccessRead, false)
			if mf != mem.FaultNone {
				return 0, &Fault{Kind: FaultPage, VA: base, Access: mem.AccessRead, PC: c.PC}
			}
			c.FRegs[i] = fbits(c.Phys.Read64(pa))
		}

	case isa.VMCALL:
		if !c.Guest {
			return 0, &Fault{Kind: FaultInvalidOp, PC: c.PC}
		}
		c.vmExit(VMExitReason{Op: isa.VMCALL})
	case isa.OUT:
		if c.Guest {
			c.vmExit(VMExitReason{Op: isa.OUT, Port: in.Imm, Val: c.Regs[in.Src2]})
		} else {
			c.charge(200) // bare-metal port write
		}
	case isa.IN:
		if c.Guest {
			c.Regs[in.Dst] = c.vmExit(VMExitReason{Op: isa.IN, Port: in.Imm})
		} else {
			c.charge(200)
			c.Regs[in.Dst] = 0
		}

	case isa.UD:
		return 0, &Fault{Kind: FaultInvalidOp, PC: c.PC}

	default:
		return 0, &Fault{Kind: FaultInvalidOp, PC: c.PC}
	}

	return next, nil
}

func (c *Core) condTaken(op isa.Op) bool {
	switch op {
	case isa.JEQ:
		return c.FlagEQ
	case isa.JNE:
		return !c.FlagEQ
	case isa.JLT:
		return c.FlagLT
	default: // JGE
		return !c.FlagLT
	}
}

func (c *Core) push(v uint64) *Fault {
	c.Regs[isa.SP] -= 8
	return c.store(c.Regs[isa.SP], v)
}

func (c *Core) pop() (uint64, *Fault) {
	v, _, _, f := c.load(c.Regs[isa.SP])
	if f != nil {
		return 0, f
	}
	c.Regs[isa.SP] += 8
	return v, nil
}

// chargeCmov prices a conditional move: one ALU op normally, free under
// the hypothetical §7 guard-fusion hardware.
func (c *Core) chargeCmov() {
	if c.FusedCmovGuards {
		return
	}
	c.charge(c.Model.Costs.ALU)
}

// nextOpIsIndirect peeks at the next instruction (for the AMD retpoline
// lfence+branch pairing).
func (c *Core) nextOpIsIndirect() bool {
	in := c.findInstruction(c.PC + isa.InstrBytes)
	return in != nil && (in.Op == isa.CALLIND || in.Op == isa.JMPIND)
}

// disambiguationBypass models the memory-disambiguation predictor: after
// a load at a given PC machine-clears, the hardware stops speculatively
// bypassing stores for it, periodically re-trying (which is why SSB
// remains exploitable with retries). One bypass is allowed every 16
// conflicting encounters per load PC.
func (c *Core) disambiguationBypass(pc uint64) bool {
	if c.ssbSeen == nil {
		c.ssbSeen = make(map[uint64]uint8)
	}
	n := c.ssbSeen[pc]
	c.ssbSeen[pc] = (n + 1) % 16
	return n == 0
}

// swapCR3Cost returns the measured mov-cr3 cost for vulnerable parts
// (Table 3) or a representative value when PTI is forced on a part the
// paper did not measure.
func (c *Core) swapCR3Cost() uint64 {
	if c.Model.Costs.SwapCR3 != 0 {
		return c.Model.Costs.SwapCR3
	}
	return 180
}

// eibrsBimodalEntry reproduces the paper's §6.2.2 observation: with
// eIBRS enabled, roughly one in every 8-20 kernel entries takes ~210
// extra cycles, and the slow entries appear to scrub kernel-mode BTB
// state.
func (c *Core) eibrsBimodalEntry() {
	spec := c.Model.Spec
	if !spec.EIBRS || !c.IBRSActive() || spec.EIBRSBimodalPeriod == 0 {
		return
	}
	if c.kernelEntries%uint64(spec.EIBRSBimodalPeriod) == 0 {
		c.charge(spec.EIBRSBimodalExtra)
		c.BTB.FlushMode(branch.ModeKernel)
	}
}

func fbits(v uint64) float64 { return math.Float64frombits(v) }
func bitsF(f float64) uint64 { return math.Float64bits(f) }
