package cpu

import (
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
	"spectrebench/internal/pmc"
)

// txn is the shadow execution context of a transient window. It starts
// as a copy of architectural state; nothing in it ever commits. The only
// durable effects of a window are microarchitectural: cache fills, fill
// buffer deposits, and performance-counter activity.
type txn struct {
	regs   [isa.NumRegs]uint64
	fregs  [isa.NumFRegs]float64
	eq, lt bool
	// stores holds transient stores (visible to younger transient loads
	// in the same window, never written back).
	stores map[uint64]uint64
	// fpuOK force-enables the FPU inside the window (the LazyFP leak:
	// the stale registers are computable transiently).
	fpuOK bool
}

// vmExit leaves guest mode for the host hook and re-enters, charging the
// architectural transition costs.
func (c *Core) vmExit(r VMExitReason) uint64 {
	c.charge(c.Model.Costs.VMExit)
	var ret uint64
	if c.OnVMExit != nil {
		wasGuest := c.Guest
		prevPriv := c.Priv
		c.Guest = false
		c.Priv = PrivKernel
		ret = c.OnVMExit(c, r)
		c.Guest = wasGuest
		c.Priv = prevPriv
	}
	c.charge(c.Model.Costs.VMEntry)
	return ret
}

// speculate runs a transient window beginning at startPC. seed, if non
// nil, perturbs the shadow context before the first instruction (poisoned
// load results, forced-enabled FPU, ...). The window ends at the model's
// speculation depth, at any serialising instruction (notably LFENCE — the
// Spectre V1 software mitigation), or at an unresolvable fault.
func (c *Core) speculate(startPC uint64, seed func(*txn)) {
	if !c.SpecEnabled || c.inTransient {
		return
	}
	c.inTransient = true
	defer func() { c.inTransient = false }()

	// The shadow context is the core's own, reset per window: the
	// inTransient guard above rules out nesting, and stores is only
	// ever indexed, so reusing its buckets is invisible.
	t := &c.spec
	t.regs, t.fregs = c.Regs, c.FRegs
	t.eq, t.lt = c.FlagEQ, c.FlagLT
	t.fpuOK = false
	clear(t.stores)
	if seed != nil {
		seed(t)
	}

	pc := startPC
	for depth := 0; depth < c.Model.SpecDepth; depth++ {
		if c.code.hasThunks {
			if _, ok := c.Thunks[pc]; ok {
				// Host thunks are opaque to speculation: the front end
				// cannot decode past them.
				return
			}
		}
		if _, _, mf := c.xlate(pc, mem.AccessFetch, false); mf != mem.FaultNone {
			return
		}
		in := c.findInstruction(pc)
		if in == nil {
			return
		}
		if in.Op.IsSerializing() {
			return
		}
		next, ok := c.transientStep(t, pc, in)
		if !ok {
			return
		}
		pc = next
	}
}

// transientStep executes one instruction µarchitecturally. It returns
// the next transient PC and whether the window continues.
func (c *Core) transientStep(t *txn, pc uint64, in *isa.Instruction) (uint64, bool) {
	cost := &c.Model.Costs
	next := pc + isa.InstrBytes

	if in.Op.IsFPU() && !c.FPUEnabled && !t.fpuOK {
		return 0, false
	}

	switch in.Op {
	case isa.NOP, isa.PAUSE, isa.SFENCE, isa.PREFETCH:
		// No transient effect.
	case isa.MOVI:
		t.regs[in.Dst] = uint64(in.Imm)
	case isa.MOV:
		t.regs[in.Dst] = t.regs[in.Src1]
	case isa.ADD:
		t.regs[in.Dst] += t.regs[in.Src1]
	case isa.ADDI:
		t.regs[in.Dst] += uint64(in.Imm)
	case isa.SUB:
		t.regs[in.Dst] -= t.regs[in.Src1]
	case isa.SUBI:
		t.regs[in.Dst] -= uint64(in.Imm)
	case isa.MUL:
		t.regs[in.Dst] *= t.regs[in.Src1]
	case isa.DIV:
		// The divider runs transiently — this is the §6 probe signal.
		c.PMC.Add(pmc.ArithDividerActive, cost.Div)
		d := int64(t.regs[in.Src1])
		if d == 0 {
			return 0, false
		}
		t.regs[in.Dst] = uint64(int64(t.regs[in.Dst]) / d)
	case isa.AND:
		t.regs[in.Dst] &= t.regs[in.Src1]
	case isa.ANDI:
		t.regs[in.Dst] &= uint64(in.Imm)
	case isa.OR:
		t.regs[in.Dst] |= t.regs[in.Src1]
	case isa.XOR:
		t.regs[in.Dst] ^= t.regs[in.Src1]
	case isa.SHLI:
		t.regs[in.Dst] <<= uint64(in.Imm)
	case isa.SHRI:
		t.regs[in.Dst] >>= uint64(in.Imm)

	case isa.CMP:
		a, b := t.regs[in.Dst], t.regs[in.Src1]
		t.eq, t.lt = a == b, a < b
	case isa.CMPI:
		a, b := t.regs[in.Dst], uint64(in.Imm)
		t.eq, t.lt = a == b, a < b

	case isa.CMOVEQ:
		if t.eq {
			t.regs[in.Dst] = t.regs[in.Src1]
		}
	case isa.CMOVNE:
		if !t.eq {
			t.regs[in.Dst] = t.regs[in.Src1]
		}
	case isa.CMOVLT:
		if t.lt {
			t.regs[in.Dst] = t.regs[in.Src1]
		}
	case isa.CMOVGE:
		if !t.lt {
			t.regs[in.Dst] = t.regs[in.Src1]
		}

	case isa.LOAD:
		va := t.regs[in.Src1] + uint64(in.Imm)
		v, ok := c.transientLoad(t, va)
		if !ok {
			return 0, false
		}
		t.regs[in.Dst] = v

	case isa.STORE:
		va := t.regs[in.Src1] + uint64(in.Imm)
		if crossesPage(va) {
			return 0, false
		}
		pa, _, mf := c.xlate(va, mem.AccessWrite, false)
		if mf != mem.FaultNone {
			return 0, false
		}
		if t.stores == nil {
			t.stores = make(map[uint64]uint64)
		}
		t.stores[pa] = t.regs[in.Src2]

	case isa.CLFLUSH:
		// A transient clflush never commits; no effect.

	case isa.JMP:
		next = in.Target
	case isa.JEQ, isa.JNE, isa.JLT, isa.JGE:
		taken := false
		switch in.Op {
		case isa.JEQ:
			taken = t.eq
		case isa.JNE:
			taken = !t.eq
		case isa.JLT:
			taken = t.lt
		case isa.JGE:
			taken = !t.lt
		}
		if taken {
			next = in.Target
		}
	case isa.CALL:
		if !c.txnPush(t, pc+isa.InstrBytes) {
			return 0, false
		}
		next = in.Target
	case isa.CALLIND:
		if !c.txnPush(t, pc+isa.InstrBytes) {
			return 0, false
		}
		next = t.regs[in.Src1]
	case isa.JMPIND:
		next = t.regs[in.Src1]
	case isa.RET:
		v, ok := c.txnPop(t)
		if !ok {
			return 0, false
		}
		next = v

	case isa.RDTSC:
		// Timers remain readable transiently (and at reduced precision
		// in sandboxes; the JIT models that separately).
		t.regs[in.Dst] = c.Cycles
	case isa.RDPMC:
		t.regs[in.Dst] = c.PMC.Read(pmc.Counter(in.Imm))

	case isa.FMOVI:
		t.fregs[in.FDst] = in.FImm
	case isa.FADD:
		t.fregs[in.FDst] += t.fregs[in.FSrc]
	case isa.FMUL:
		t.fregs[in.FDst] *= t.fregs[in.FSrc]
	case isa.FDIV:
		c.PMC.Add(pmc.ArithDividerActive, cost.FDiv)
		t.fregs[in.FDst] /= t.fregs[in.FSrc]
	case isa.FLOAD:
		va := t.regs[in.Src1] + uint64(in.Imm)
		v, ok := c.transientLoad(t, va)
		if !ok {
			return 0, false
		}
		t.fregs[in.FDst] = fbits(v)
	case isa.FSTOR:
		va := t.regs[in.Src1] + uint64(in.Imm)
		if crossesPage(va) {
			return 0, false
		}
		pa, _, mf := c.xlate(va, mem.AccessWrite, false)
		if mf != mem.FaultNone {
			return 0, false
		}
		if t.stores == nil {
			t.stores = make(map[uint64]uint64)
		}
		t.stores[pa] = bitsF(t.fregs[in.FSrc])
	case isa.FTOI:
		t.regs[in.Dst] = uint64(int64(t.fregs[in.FSrc]))
	case isa.ITOF:
		t.fregs[in.FDst] = float64(int64(t.regs[in.Src1]))

	default:
		// Anything else (privileged, serialising, UD) ends the window.
		return 0, false
	}
	return next, true
}

// transientLoad performs a load inside a window: it fills the caches
// (the side channel) and resolves nested Meltdown-family leaks, but
// charges no cycles and commits nothing.
func (c *Core) transientLoad(t *txn, va uint64) (uint64, bool) {
	if crossesPage(va) {
		// A split access stalls in the load ports; the window never
		// sees its value.
		return 0, false
	}
	pa, pte, mf := c.xlate(va, mem.AccessRead, false)
	if mf != mem.FaultNone {
		// Nested faulting loads leak by the same rules as architectural
		// ones (this is how Meltdown reads kernel memory from inside a
		// Spectre window, and how MDS samples inside a faulting window).
		v, ok := c.leakValue(pendingLeak{va: va, pte: pte, kind: mf, valid: true})
		return v, ok
	}
	if tv, ok := t.stores[pa]; ok {
		return tv, true
	}
	var v uint64
	if e, hit := c.SB.Lookup(pa); hit {
		if c.SSBDActive() {
			// SSBD also blocks transient bypass of in-flight stores:
			// the load waits and sees the committed value.
			v = e.Value
		} else {
			v = e.Value
		}
	} else {
		v = c.Phys.Read64(pa)
	}
	// The durable microarchitectural footprint.
	c.L1.Touch(pa)
	c.FB.Deposit(v)
	return v, true
}

func (c *Core) txnPush(t *txn, v uint64) bool {
	sp := t.regs[isa.SP] - 8
	pa, _, mf := c.xlate(sp, mem.AccessWrite, false)
	if mf != mem.FaultNone {
		return false
	}
	if t.stores == nil {
		t.stores = make(map[uint64]uint64)
	}
	t.stores[pa] = v
	t.regs[isa.SP] = sp
	return true
}

func (c *Core) txnPop(t *txn) (uint64, bool) {
	sp := t.regs[isa.SP]
	pa, _, mf := c.xlate(sp, mem.AccessRead, false)
	if mf != mem.FaultNone {
		return 0, false
	}
	t.regs[isa.SP] = sp + 8
	if tv, ok := t.stores[pa]; ok {
		return tv, true
	}
	return c.Phys.Read64(pa), true
}
