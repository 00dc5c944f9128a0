package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"spectrebench/internal/faultinject"
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
	"spectrebench/internal/model"
	"spectrebench/internal/pmc"
	"spectrebench/internal/simscope"
)

// jitThunkPC is the magic address the differential fuzzer's programs
// jump to for JIT-style self-replacement.
const jitThunkPC = 0x50_0000

// fuzzBase is where the differential fuzzer loads its programs: 64
// instructions short of a code page boundary, so every program spans two
// pages and both the architectural and the transient block walks cross
// a page-boundary block head.
const fuzzBase = codeBase + mem.PageSize - 64*isa.InstrBytes

// fuzzOffset returns a data-window offset for a fuzz load or store. Most
// are 8-byte aligned anywhere in the 64-page window; three in sixteen land
// on one of the last two aligned slots of a page, and one in sixteen
// straddles a page end (an alignment fault architecturally, the end of
// the window transiently).
func fuzzOffset(r *rand.Rand) int64 {
	page := int64(r.Intn(64)) * mem.PageSize
	switch r.Intn(16) {
	case 0:
		return page + mem.PageSize - 7 + int64(r.Intn(7))
	case 1, 2, 3:
		return page + mem.PageSize - 8*int64(1+r.Intn(2))
	}
	return page + int64(r.Intn(512))*8
}

// genFuzzProgram emits a randomized program for the differential test:
// ALU soup, loads/stores into the data region (some at or across page
// ends), conditional and unconditional branches between eight labels,
// calls, returns and indirect jumps, occasional serializing ops, CR3
// swaps, timestamp reads, and rare jumps into the JIT thunk. R10 holds
// the data base, R11/R12 the two CR3 values, R13 a nonzero divisor and
// R14 the indirect-jump target; the soup writes only R0-R7.
func genFuzzProgram(r *rand.Rand) *isa.Program {
	a := isa.NewAsm()
	const body = 120
	const labels = 8
	for i := 0; i < body; i++ {
		if i%(body/labels) == 0 {
			a.Label(fmt.Sprintf("L%d", i/(body/labels)))
		}
		dst := isa.Reg(r.Intn(8))
		src := isa.Reg(r.Intn(8))
		lbl := fmt.Sprintf("L%d", r.Intn(labels))
		switch k := r.Intn(100); {
		case k < 10:
			a.MovI(dst, int64(r.Uint32()))
		case k < 17:
			a.Add(dst, src)
		case k < 22:
			a.Sub(dst, src)
		case k < 25:
			a.Mul(dst, src)
		case k < 28:
			a.Xor(dst, src)
		case k < 31:
			a.AndI(dst, int64(r.Uint32()))
		case k < 33:
			a.ShrI(dst, int64(r.Intn(16)))
		case k < 38:
			a.Cmp(dst, src)
		case k < 41:
			a.CmovLt(dst, src)
		case k < 49:
			a.Load(dst, isa.R10, fuzzOffset(r))
		case k < 57:
			a.Store(isa.R10, fuzzOffset(r), src)
		case k < 63:
			if r.Intn(2) == 0 {
				// A clock-driven coin: the predictor cannot learn it,
				// so this branch keeps opening transient windows.
				a.Rdtsc(dst)
				a.AndI(dst, 4)
				a.CmpI(dst, 0)
			}
			a.Jne(lbl)
		case k < 67:
			a.Jlt(lbl)
		case k < 69:
			a.Jmp(lbl)
		case k < 72:
			a.Call(lbl)
		case k < 75:
			a.Ret()
		case k < 77:
			a.MovLabel(isa.R14, lbl)
			a.JmpInd(isa.R14)
		case k < 79:
			a.Clflush(isa.R10, fuzzOffset(r)&^7)
		case k < 81:
			a.Rdtsc(dst)
		case k < 83:
			a.Lfence()
		case k < 85:
			a.Verw()
		case k < 88:
			if r.Intn(2) == 0 {
				a.MovCR3(isa.R11)
			} else {
				a.MovCR3(isa.R12)
			}
		case k < 90:
			a.Div(dst, isa.R13)
		case k < 92:
			a.JmpAbs(jitThunkPC)
		default:
			a.Nop()
		}
	}
	a.Hlt()
	return a.MustAssemble(fuzzBase)
}

// newFuzzCore builds one core for the differential test. Both cores of a
// pair are built identically (own physical memory, own page tables with
// the same deterministic layout, fault injector streams from the same
// seed) and differ only in whether StepBlock replays decoded blocks or
// falls back to per-instruction Step (refStep). Traps keep the program
// running: a data fault skips the faulting instruction, and a fetch
// from outside the program (a return into a replaced JIT program, say)
// restarts it.
func newFuzzCore(t *testing.T, m *model.CPU, seed uint64, blockCache bool) *Core {
	t.Helper()
	c := New(m)
	c.refStep = !blockCache
	c.FI = faultinject.New(seed)
	pt1 := c.PTs.NewTable(1)
	pt2 := c.PTs.NewTable(2)
	for _, pt := range []*mem.PageTable{pt1, pt2} {
		pt.MapRange(codeBase, codeBase, 16, false, true, false, false)
		pt.MapRange(dataBase, dataBase, 64, true, true, true, false)
		pt.MapRange(stackTop-16*mem.PageSize, stackTop-16*mem.PageSize, 16, true, true, true, false)
	}
	c.SetPageTable(pt1)
	c.Priv = PrivKernel // MOVCR3 in the instruction soup must not #GP
	c.Regs[isa.SP] = stackTop
	c.Regs[isa.R10] = dataBase
	c.Regs[isa.R11] = mem.CR3(pt2)
	c.Regs[isa.R12] = mem.CR3(pt1)
	c.Regs[isa.R13] = 7
	c.Regs[isa.R14] = fuzzBase
	c.OnTrap = func(cc *Core, f Fault) TrapAction {
		if f.Kind == FaultInvalidOp || f.Kind == FaultPage && f.Access == mem.AccessFetch {
			cc.PC = fuzzBase
			return TrapContext
		}
		return TrapSkip
	}
	jitGen := 0
	c.RegisterThunk(jitThunkPC, func(cc *Core) {
		// JIT recompilation: replace the program at the same base with
		// a freshly generated variant and restart it. Both cores derive
		// the variant from (seed, generation), so they stay in lockstep.
		jitGen++
		rr := rand.New(rand.NewSource(int64(seed)*1009 + int64(jitGen)))
		cc.LoadProgram(genFuzzProgram(rr))
		cc.PC = fuzzBase
	})
	c.LoadProgram(genFuzzProgram(rand.New(rand.NewSource(int64(seed)))))
	c.PC = fuzzBase
	return c
}

// compareCores fails the test on any observable divergence between the
// reference and fast-path cores.
func compareCores(t *testing.T, ref, fast *Core, seed uint64) {
	t.Helper()
	ctx := func(what string) string { return fmt.Sprintf("seed %d: %s", seed, what) }
	if ref.Regs != fast.Regs {
		t.Errorf("%s:\n ref  %v\n fast %v", ctx("registers diverged"), ref.Regs, fast.Regs)
	}
	if ref.FlagEQ != fast.FlagEQ || ref.FlagLT != fast.FlagLT {
		t.Errorf("%s", ctx("flags diverged"))
	}
	if ref.PC != fast.PC {
		t.Errorf("%s: ref %#x fast %#x", ctx("PC diverged"), ref.PC, fast.PC)
	}
	if ref.CR3 != fast.CR3 {
		t.Errorf("%s: ref %#x fast %#x", ctx("CR3 diverged"), ref.CR3, fast.CR3)
	}
	if ref.Cycles != fast.Cycles {
		t.Errorf("%s: ref %d fast %d", ctx("cycles diverged"), ref.Cycles, fast.Cycles)
	}
	if ref.Instret != fast.Instret {
		t.Errorf("%s: ref %d fast %d", ctx("instret diverged"), ref.Instret, fast.Instret)
	}
	if ref.halted != fast.halted {
		t.Errorf("%s", ctx("halt state diverged"))
	}
	if rs, fs := ref.PMC.Snapshot(), fast.PMC.Snapshot(); rs != fs {
		t.Errorf("%s:\n ref  %v\n fast %v", ctx("PMC counters diverged"), rs, fs)
	}
	if ref.TLB.Hits != fast.TLB.Hits || ref.TLB.Misses != fast.TLB.Misses || ref.TLB.Flushes != fast.TLB.Flushes {
		t.Errorf("%s: ref %d/%d/%d fast %d/%d/%d", ctx("TLB stats diverged"),
			ref.TLB.Hits, ref.TLB.Misses, ref.TLB.Flushes,
			fast.TLB.Hits, fast.TLB.Misses, fast.TLB.Flushes)
	}
	for rl, fl := ref.L1, fast.L1; rl != nil; rl, fl = rl.Next, fl.Next {
		if rl.Hits != fl.Hits || rl.Misses != fl.Misses {
			t.Errorf("%s: %s ref %d/%d fast %d/%d", ctx("cache stats diverged"),
				rl.Name, rl.Hits, rl.Misses, fl.Hits, fl.Misses)
		}
	}
}

// TestBlockCacheDifferential is the property test for the decoded-block
// fast path: randomized programs — including self-replacing JIT code,
// CR3 swaps between two PCID-tagged page tables, and fault-injected TLB
// glitches — must leave the fast-path core in exactly the state of the
// per-instruction reference interpreter: registers, flags, PC, cycles,
// instret, PMC counts, TLB and cache statistics, and the same error.
func TestBlockCacheDifferential(t *testing.T) {
	models := []*model.CPU{model.SkylakeClient(), model.CascadeLake()}
	var retired, tlbHits, mispredicts uint64
	for seed := uint64(1); seed <= 25; seed++ {
		m := models[seed%uint64(len(models))]
		ref := newFuzzCore(t, m, seed, false)
		fast := newFuzzCore(t, m, seed, true)
		const steps = 4000
		refErr := ref.Run(steps)
		fastErr := fast.Run(steps)
		if (refErr == nil) != (fastErr == nil) ||
			(refErr != nil && refErr.Error() != fastErr.Error()) {
			t.Errorf("seed %d: errors diverged:\n ref  %v\n fast %v", seed, refErr, fastErr)
		}
		compareCores(t, ref, fast, seed)
		if t.Failed() {
			t.FailNow()
		}
		retired += fast.Instret
		tlbHits += fast.TLB.Hits
		mispredicts += fast.PMC.Read(pmc.BranchMispredicts)
	}
	t.Logf("%d instructions retired, %d TLB hits, %d mispredicts", retired, tlbHits, mispredicts)
	// Guard against a fuzzer regression that makes every program fault on
	// its first instructions: the comparison above would still pass, but
	// it would no longer cover the fast path at all.
	if retired < 10000 {
		t.Errorf("fuzzer retired only %d instructions across all seeds; programs fault too early to exercise the fast path", retired)
	}
	if tlbHits == 0 {
		t.Error("fuzzer never hit the TLB; the fast fetch path was not exercised")
	}
	// Every mispredict opens a transient window; without them the
	// comparison says nothing about speculate.
	if mispredicts < 200 {
		t.Errorf("fuzzer mispredicted only %d branches across all seeds; too few transient windows to exercise speculation", mispredicts)
	}
}

// TestBlockCacheDifferentialLockstep single-steps the two interpreters
// against each other through StepBlock(1), which must behave exactly
// like Step even mid-block.
func TestBlockCacheDifferentialLockstep(t *testing.T) {
	const seed = 42
	ref := newFuzzCore(t, model.SkylakeClient(), seed, false)
	fast := newFuzzCore(t, model.SkylakeClient(), seed, true)
	for i := 0; i < 2000; i++ {
		refErr := ref.Step()
		n, fastErr := fast.StepBlock(1)
		if n != 1 {
			t.Fatalf("step %d: StepBlock(1) consumed %d iterations", i, n)
		}
		if (refErr == nil) != (fastErr == nil) ||
			(refErr != nil && refErr.Error() != fastErr.Error()) {
			t.Fatalf("step %d: errors diverged: ref %v fast %v", i, refErr, fastErr)
		}
		if ref.PC != fast.PC || ref.Cycles != fast.Cycles || ref.Regs != fast.Regs {
			t.Fatalf("step %d: state diverged (pc %#x/%#x cycles %d/%d)",
				i, ref.PC, fast.PC, ref.Cycles, fast.Cycles)
		}
		if refErr != nil {
			break
		}
	}
}

// TestBlockCacheJITReplacement checks invalidation on the LoadProgram
// recompilation path directly: after a block is hot, replacing the
// program at the same base must retire the decoded block and execute the
// new code.
func TestBlockCacheJITReplacement(t *testing.T) {
	c := newUserCore(t, model.SkylakeClient())
	a := isa.NewAsm()
	a.MovI(isa.R0, 1)
	a.MovI(isa.R1, 1)
	a.Hlt()
	c.LoadProgram(a.MustAssemble(codeBase))
	c.PC = codeBase
	if err := c.RunUntilHalt(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.R0] != 1 {
		t.Fatalf("first program: R0 = %d, want 1", c.Regs[isa.R0])
	}
	// Recompile: same base, different constant.
	b := isa.NewAsm()
	b.MovI(isa.R0, 2)
	b.MovI(isa.R1, 2)
	b.Hlt()
	c.LoadProgram(b.MustAssemble(codeBase))
	c.ClearHalt()
	c.PC = codeBase
	if err := c.RunUntilHalt(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.R0] != 2 {
		t.Fatalf("stale block survived recompilation: R0 = %d, want 2", c.Regs[isa.R0])
	}
}

// TestRegisterThunkInvalidatesBlocks installs a thunk in the middle of
// an already-decoded block and checks the next dispatch honours it
// instead of running through the trapped address.
func TestRegisterThunkInvalidatesBlocks(t *testing.T) {
	c := newUserCore(t, model.SkylakeClient())
	a := isa.NewAsm()
	a.MovI(isa.R0, 1) // codeBase + 0
	a.AddI(isa.R0, 1) // codeBase + 4  <- thunk lands here
	a.AddI(isa.R0, 1) // codeBase + 8
	a.Hlt()
	c.LoadProgram(a.MustAssemble(codeBase))
	c.PC = codeBase
	if err := c.RunUntilHalt(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.R0] != 3 {
		t.Fatalf("warmup: R0 = %d, want 3", c.Regs[isa.R0])
	}
	fired := false
	c.RegisterThunk(codeBase+4, func(cc *Core) {
		fired = true
		cc.PC = codeBase + 8 // skip the first AddI
	})
	c.ClearHalt()
	c.Regs[isa.R0] = 0
	c.PC = codeBase
	if err := c.RunUntilHalt(100); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("thunk installed mid-block did not fire on re-dispatch")
	}
	if c.Regs[isa.R0] != 2 {
		t.Fatalf("after thunk: R0 = %d, want 2", c.Regs[isa.R0])
	}
}

// TestHasThunksFlag checks the per-step thunk probe gate: fresh cores
// report no thunks, RegisterThunk flips the shared flag, and SMT
// siblings observe it.
func TestHasThunksFlag(t *testing.T) {
	c := New(model.SkylakeClient())
	if c.code.hasThunks {
		t.Fatal("fresh core claims registered thunks")
	}
	s := NewSMTSibling(c)
	c.RegisterThunk(0x1234, func(*Core) {})
	if !c.code.hasThunks || !s.code.hasThunks {
		t.Fatal("RegisterThunk did not propagate to the shared fetch state")
	}
}

// TestSMTSiblingCreationInvalidates checks that forking a sibling bumps
// the shared code generation so pre-fork blocks are not replayed.
func TestSMTSiblingCreationInvalidates(t *testing.T) {
	c := newUserCore(t, model.SkylakeClient())
	before := c.code.gen
	NewSMTSibling(c)
	if c.code.gen == before {
		t.Fatal("NewSMTSibling did not bump the code generation")
	}
}

// TestResetClearsLeakAndKernelEntries is the regression test for the
// Reset audit: a reused core must not carry Meltdown-family leak context
// or eIBRS kernel-entry history into the next experiment.
func TestResetClearsLeakAndKernelEntries(t *testing.T) {
	c := New(model.SkylakeClient())
	c.pendingLeak = pendingLeak{va: 0x1234, kind: mem.FaultProtection, valid: true}
	c.kernelEntries = 99
	c.Reset()
	if c.pendingLeak.valid || c.pendingLeak.va != 0 {
		t.Error("Reset left pendingLeak populated")
	}
	if c.kernelEntries != 0 {
		t.Error("Reset left kernelEntries nonzero")
	}
}

// TestTelemetryCadence checks the flush schedule: nothing is published
// on the very first step (Instret == 0), and the accrued cycles appear
// once 4096 instructions have retired. The core publishes into the
// scope it was constructed under.
func TestTelemetryCadence(t *testing.T) {
	sc := &simscope.Scope{}
	restore := simscope.Enter(sc)
	defer restore()
	c := newUserCore(t, model.SkylakeClient())
	a := isa.NewAsm()
	a.Label("loop")
	a.AddI(isa.R0, 1)
	a.Jmp("loop")
	c.LoadProgram(a.MustAssemble(codeBase))
	c.PC = codeBase

	c.Charge(1000) // pre-charged cost that the first step must not publish
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if d := sc.Cycles(); d != 0 {
		t.Fatalf("first step published %d cycles; cadence must skip Instret == 0", d)
	}
	// Run up to (but not past) the 4096th retirement boundary and check
	// exactly one flush happened there.
	if err := c.Run(4096 - int(c.Instret)); err != nil {
		t.Fatal(err)
	}
	if sc.Cycles() != 0 {
		t.Fatal("flush fired before 4096 instructions retired")
	}
	if err := c.Step(); err != nil { // Instret == 4096 at entry: flush
		t.Fatal(err)
	}
	if sc.Cycles() == 0 {
		t.Fatal("flush did not fire at the 4096-instruction boundary")
	}
}

// TestStepBlockLimit checks the Step-equivalence contract around the
// iteration limit: a block longer than the limit must stop exactly at
// the limit.
func TestStepBlockLimit(t *testing.T) {
	c := newUserCore(t, model.SkylakeClient())
	a := isa.NewAsm()
	for i := 0; i < 20; i++ {
		a.AddI(isa.R0, 1)
	}
	a.Hlt()
	c.LoadProgram(a.MustAssemble(codeBase))
	c.PC = codeBase
	n, err := c.StepBlock(5)
	if err != nil || n != 5 {
		t.Fatalf("StepBlock(5) = (%d, %v), want (5, nil)", n, err)
	}
	if c.Regs[isa.R0] != 5 || c.Instret != 5 {
		t.Fatalf("after StepBlock(5): R0 = %d, Instret = %d, want 5, 5", c.Regs[isa.R0], c.Instret)
	}
	if c.pendCycles != 0 || c.pendInstret != 0 {
		t.Fatal("StepBlock returned with unpublished accumulators")
	}
}
