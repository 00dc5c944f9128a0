package cpu

import (
	"testing"

	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
	"spectrebench/internal/model"
)

// newChainFuzzCore builds one core for the superblock differential: the
// block cache is always on, and only the chaining of block exits differs
// between the pair. Everything else — memory, page tables, fault streams,
// the self-replacing JIT thunk — is identical to the block-cache fuzzer.
func newChainFuzzCore(t *testing.T, m *model.CPU, seed uint64, superblock bool) *Core {
	t.Helper()
	c := newFuzzCore(t, m, seed, true)
	c.noChain = !superblock
	return c
}

// TestSuperblockDifferential is the property test for superblock
// chaining: randomized programs — including self-replacing JIT code, CR3
// swaps between two PCID-tagged page tables, predictor-visible branch
// soup, and fault-injected TLB glitches — must leave the chained core in
// exactly the state of the unchained block-cache core: registers, flags,
// PC, cycles, instret, PMC counts, TLB and cache statistics, and the
// same error.
func TestSuperblockDifferential(t *testing.T) {
	models := []*model.CPU{model.SkylakeClient(), model.CascadeLake()}
	var retired, tlbHits uint64
	for seed := uint64(1); seed <= 25; seed++ {
		m := models[seed%uint64(len(models))]
		ref := newChainFuzzCore(t, m, seed, false)
		fast := newChainFuzzCore(t, m, seed, true)
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
	}
	if retired < 10000 {
		t.Errorf("fuzzer retired only %d instructions across all seeds; programs fault too early to exercise chaining", retired)
	}
	if tlbHits == 0 {
		t.Error("fuzzer never hit the TLB; the chained fetch path was not exercised")
	}
}

// TestSuperblockDifferentialLockstep single-steps the chained and
// unchained interpreters against each other through StepBlock(1): the
// iteration limit must stop a chain exactly at the boundary, mid-chain
// included.
func TestSuperblockDifferentialLockstep(t *testing.T) {
	const seed = 43
	ref := newChainFuzzCore(t, model.SkylakeClient(), seed, false)
	fast := newChainFuzzCore(t, model.SkylakeClient(), seed, true)
	for i := 0; i < 2000; i++ {
		rn, refErr := ref.StepBlock(1)
		fn, fastErr := fast.StepBlock(1)
		if rn != 1 || fn != 1 {
			t.Fatalf("step %d: StepBlock(1) consumed %d/%d iterations", i, rn, fn)
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

// TestSuperblockChainWindows runs the fuzz pairs again under varying
// StepBlock limits, so chains are interrupted at every phase of
// formation — the memoised edge must survive re-entry with no drift in
// the published accounting.
func TestSuperblockChainWindows(t *testing.T) {
	// Each core is driven independently to the same instruction budget:
	// without chaining StepBlock returns at block end (n < window), with
	// chaining it runs to the window, so call counts differ — only the
	// consumed-instruction total is a fair rendezvous point.
	drive := func(c *Core, window, budget int) error {
		for budget > 0 && !c.Halted() {
			limit := window
			if budget < limit {
				limit = budget
			}
			n, err := c.StepBlock(limit)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			budget -= n
		}
		return nil
	}
	for _, window := range []int{3, 17, 64, 251} {
		seed := uint64(7 + window)
		ref := newChainFuzzCore(t, model.SkylakeClient(), seed, false)
		fast := newChainFuzzCore(t, model.SkylakeClient(), seed, true)
		refErr := drive(ref, window, 4000)
		fastErr := drive(fast, window, 4000)
		if (refErr == nil) != (fastErr == nil) ||
			(refErr != nil && refErr.Error() != fastErr.Error()) {
			t.Errorf("window %d: errors diverged:\n ref  %v\n fast %v", window, refErr, fastErr)
		}
		compareCores(t, ref, fast, seed)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestSuperblockPredictorFlipMidChain pins the awkward chaining case: a
// conditional branch that alternates direction every iteration. The
// memoised chain edge is wrong on every other trip, so chainNext must
// re-resolve without losing exactness against the unchained core.
func TestSuperblockPredictorFlipMidChain(t *testing.T) {
	prog := func() *isa.Program {
		a := isa.NewAsm()
		a.MovI(isa.R0, 0) // i
		a.MovI(isa.R1, 0) // even-path accumulator
		a.MovI(isa.R2, 0) // odd-path accumulator
		a.Label("loop")
		a.Mov(isa.R4, isa.R0)
		a.AndI(isa.R4, 1)
		a.CmpI(isa.R4, 0)
		a.Jne("odd") // flips taken/not-taken every iteration
		a.AddI(isa.R1, 3)
		a.Jmp("join")
		a.Label("odd")
		a.AddI(isa.R2, 5)
		a.Label("join")
		a.AddI(isa.R0, 1)
		a.CmpI(isa.R0, 200)
		a.Jne("loop")
		a.Hlt()
		return a.MustAssemble(codeBase)
	}
	ref := newUserCore(t, model.SkylakeClient())
	ref.noChain = true
	fast := newUserCore(t, model.SkylakeClient())
	run(t, ref, prog())
	run(t, fast, prog())
	if fast.Regs[isa.R1] != 300 || fast.Regs[isa.R2] != 500 {
		t.Fatalf("flip loop computed R1=%d R2=%d, want 300/500",
			fast.Regs[isa.R1], fast.Regs[isa.R2])
	}
	compareCores(t, ref, fast, 0)
}

// TestSuperblockJITReplacementMidChain gets a chained loop hot, then
// replaces the program at the same base through the JIT thunk path: the
// generation bump must retire every block and chain link, so the new
// code runs instead of a stale trace.
func TestSuperblockJITReplacementMidChain(t *testing.T) {
	c := newUserCore(t, model.SkylakeClient())

	makeProg := func(inc int64) *isa.Program {
		a := isa.NewAsm()
		a.MovI(isa.R1, 0)
		a.MovI(isa.R2, 0)
		a.Label("loop") // back-edge chains to itself once hot
		a.AddI(isa.R1, inc)
		a.AddI(isa.R2, 1)
		a.CmpI(isa.R2, 40)
		a.Jne("loop")
		a.Hlt()
		return a.MustAssemble(codeBase)
	}
	run(t, c, makeProg(1))
	if c.Regs[isa.R1] != 40 {
		t.Fatalf("first program: R1 = %d, want 40", c.Regs[isa.R1])
	}
	// The loop back-edge must have formed at least one chain link.
	linked := false
	for _, b := range c.blocks {
		if b != nil && b.chainTo != nil {
			linked = true
		}
	}
	if !linked {
		t.Fatal("hot loop formed no chain links; the test no longer covers chaining")
	}
	// Recompile at the same base with a different increment.
	c.LoadProgram(makeProg(7))
	c.ClearHalt()
	c.PC = codeBase
	if err := c.RunUntilHalt(1000); err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.R1] != 280 {
		t.Fatalf("stale chain survived recompilation: R1 = %d, want 280", c.Regs[isa.R1])
	}
}

// TestSuperblockCR3SwapMidChain drives a hot loop whose body swaps CR3
// between two PCID-tagged tables every iteration, with loads and stores
// on both sides: the serialising MOVCR3 ends every block, and the chained
// core must keep TLB statistics (tagged entries, flush counts) exactly in
// step with the unchained one.
func TestSuperblockCR3SwapMidChain(t *testing.T) {
	build := func(superblock bool) *Core {
		c := New(model.SkylakeClient())
		c.noChain = !superblock
		pt1 := c.PTs.NewTable(1)
		pt2 := c.PTs.NewTable(2)
		for _, pt := range []*mem.PageTable{pt1, pt2} {
			pt.MapRange(codeBase, codeBase, 16, false, true, false, false)
			pt.MapRange(dataBase, dataBase, 64, true, true, true, false)
			pt.MapRange(stackTop-16*mem.PageSize, stackTop-16*mem.PageSize, 16, true, true, true, false)
		}
		c.SetPageTable(pt1)
		c.Priv = PrivKernel
		c.Regs[isa.SP] = stackTop
		c.Regs[isa.R10] = dataBase
		c.Regs[isa.R11] = mem.CR3(pt2)
		c.Regs[isa.R12] = mem.CR3(pt1)
		return c
	}
	prog := func() *isa.Program {
		a := isa.NewAsm()
		a.MovI(isa.R0, 0)
		a.Label("loop")
		a.Store(isa.R10, 0, isa.R0)
		a.MovCR3(isa.R11)
		a.Load(isa.R1, isa.R10, 0)
		a.MovCR3(isa.R12)
		a.Add(isa.R2, isa.R1)
		a.AddI(isa.R0, 1)
		a.CmpI(isa.R0, 120)
		a.Jne("loop")
		a.Hlt()
		return a.MustAssemble(codeBase)
	}
	ref := build(false)
	fast := build(true)
	run(t, ref, prog())
	run(t, fast, prog())
	compareCores(t, ref, fast, 0)
}

// TestSuperblockFuzzSoupRetiresChains sanity-checks coverage: at least
// one fuzz program must actually form chain links, or the differential
// above is vacuous for the chaining code.
func TestSuperblockFuzzSoupRetiresChains(t *testing.T) {
	linked := 0
	for seed := uint64(1); seed <= 10; seed++ {
		c := newChainFuzzCore(t, model.SkylakeClient(), seed, true)
		_ = c.Run(4000)
		for _, b := range c.blocks {
			if b != nil && b.chainTo != nil {
				linked++
			}
		}
	}
	if linked == 0 {
		t.Fatal("no fuzz seed formed a chain link; the differential no longer exercises superblock chaining")
	}
}
