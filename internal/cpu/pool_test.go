package cpu

import (
	"fmt"
	"testing"

	"spectrebench/internal/faultinject"
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
	"spectrebench/internal/model"
	"spectrebench/internal/pmc"
	"spectrebench/internal/simscope"
)

// dirtyCore drives a core through a workload that touches every pooled
// structure: registers, MSRs, TLB, all cache levels, BTB/RSB/BHB/Cond,
// store and fill buffers, PMCs, thunks, decoded blocks, and the
// disambiguation/leak bookkeeping. seed varies the footprint so the
// differential below is exercised against several distinct dirty
// states.
// mapStd installs the standard user-mode test layout on a core.
func mapStd(c *Core) {
	pt := c.PTs.NewTable(1)
	pt.MapRange(codeBase, codeBase, 16, false, true, false, false)
	pt.MapRange(dataBase, dataBase, 64, true, true, true, false)
	pt.MapRange(stackTop-16*mem.PageSize, stackTop-16*mem.PageSize, 16, true, true, true, false)
	c.SetPageTable(pt)
	c.Regs[isa.SP] = stackTop
}

func dirtyCore(t *testing.T, c *Core, seed uint64) {
	t.Helper()
	mapStd(c)
	a := isa.NewAsm()
	a.MovI(isa.R1, dataBase)
	a.MovI(isa.R2, int64(seed%7)+1)
	a.MovI(isa.R9, int64(seed%13)+4)
	a.Label("loop")
	a.Store(isa.R1, 0, isa.R2)
	a.Load(isa.R3, isa.R1, 0)
	a.AddI(isa.R1, 64)
	a.Call("leaf")
	a.SubI(isa.R9, 1)
	a.CmpI(isa.R9, 0)
	a.Jne("loop")
	a.Hlt()
	a.Label("leaf")
	a.Ret()
	run(t, c, a.MustAssemble(codeBase))

	c.SetMSR(MSRSpecCtrl, SpecCtrlIBRS|SpecCtrlSSBD)
	c.SetMSR(MSRLStar, 0xdead0000)
	c.RegisterThunk(codeBase+0x8000, func(*Core) {})
	c.Priv = PrivKernel
	c.kernelEntries = seed
	c.FB.Deposit(0x5a5a_0000 | seed)
	c.OnTrap = func(*Core, Fault) TrapAction { return TrapSkip }
	c.OnRetire = func(uint64, *isa.Instruction) {}
	c.FusedCmovGuards = true
	c.NoPCID = true
	c.interrupted.Store(true)
}

// newScope returns a scope carrying the given fault seed and fault
// activation (nil = faults off), mirroring what the engine builds for a
// cell.
func newScope(seed uint64, fault any) *simscope.Scope {
	return &simscope.Scope{FaultSeed: seed, Fault: fault}
}

// compareCores fails the test when fresh and recycled differ in any
// observable state: architectural registers, MSRs, microarchitectural
// stats and geometry, accounting, and the fault-injection draw stream.
func comparePooledCores(t *testing.T, fresh, recycled *Core) {
	t.Helper()
	if fresh.Regs != recycled.Regs {
		t.Errorf("Regs: fresh %v recycled %v", fresh.Regs, recycled.Regs)
	}
	if fresh.FRegs != recycled.FRegs {
		t.Errorf("FRegs differ")
	}
	if fresh.FlagEQ != recycled.FlagEQ || fresh.FlagLT != recycled.FlagLT {
		t.Errorf("flags differ")
	}
	if fresh.PC != recycled.PC || fresh.Priv != recycled.Priv || fresh.CR3 != recycled.CR3 {
		t.Errorf("PC/Priv/CR3 differ: %x/%v/%x vs %x/%v/%x",
			fresh.PC, fresh.Priv, fresh.CR3, recycled.PC, recycled.Priv, recycled.CR3)
	}
	if fresh.FPUEnabled != recycled.FPUEnabled || fresh.GSSwapped != recycled.GSSwapped {
		t.Errorf("FPU/GS state differs")
	}
	for _, msr := range []uint32{MSRSpecCtrl, MSRArchCaps, MSRLStar, MSRGSBase, MSRTrapEntry} {
		if fresh.MSR(msr) != recycled.MSR(msr) {
			t.Errorf("MSR %#x: fresh %#x recycled %#x", msr, fresh.MSR(msr), recycled.MSR(msr))
		}
	}
	if fresh.Cycles != recycled.Cycles || fresh.Instret != recycled.Instret {
		t.Errorf("accounting: fresh %d/%d recycled %d/%d",
			fresh.Cycles, fresh.Instret, recycled.Cycles, recycled.Instret)
	}
	if fresh.CycleBudget != recycled.CycleBudget {
		t.Errorf("CycleBudget: fresh %d recycled %d", fresh.CycleBudget, recycled.CycleBudget)
	}
	if fresh.PMC.Snapshot() != recycled.PMC.Snapshot() {
		t.Errorf("PMC: fresh %v recycled %v", fresh.PMC.Snapshot(), recycled.PMC.Snapshot())
	}
	if fresh.TLB.Valid() != recycled.TLB.Valid() ||
		fresh.TLB.Hits != recycled.TLB.Hits ||
		fresh.TLB.Misses != recycled.TLB.Misses ||
		fresh.TLB.Flushes != recycled.TLB.Flushes {
		t.Errorf("TLB state differs: valid %d/%d hits %d/%d misses %d/%d",
			fresh.TLB.Valid(), recycled.TLB.Valid(),
			fresh.TLB.Hits, recycled.TLB.Hits, fresh.TLB.Misses, recycled.TLB.Misses)
	}
	for f, r := fresh.L1, recycled.L1; f != nil || r != nil; f, r = f.Next, r.Next {
		if f == nil || r == nil {
			t.Fatalf("cache hierarchy depth differs")
		}
		if f.Hits != r.Hits || f.Misses != r.Misses {
			t.Errorf("cache %s stats: fresh %d/%d recycled %d/%d", f.Name, f.Hits, f.Misses, r.Hits, r.Misses)
		}
		if f.HitLatency != r.HitLatency || f.MemLatency != r.MemLatency {
			t.Errorf("cache %s latencies differ", f.Name)
		}
		if len(f.Contents()) != len(r.Contents()) {
			t.Errorf("cache %s contents: fresh %d lines recycled %d lines",
				f.Name, len(f.Contents()), len(r.Contents()))
		}
	}
	if fresh.BTB.Config() != recycled.BTB.Config() {
		t.Errorf("BTB config: fresh %+v recycled %+v", fresh.BTB.Config(), recycled.BTB.Config())
	}
	if fresh.BTB.Valid() != recycled.BTB.Valid() {
		t.Errorf("BTB valid: fresh %d recycled %d", fresh.BTB.Valid(), recycled.BTB.Valid())
	}
	if fresh.RSB.Depth() != recycled.RSB.Depth() || fresh.RSB.Live() != recycled.RSB.Live() {
		t.Errorf("RSB differs")
	}
	if fresh.SB.Len() != recycled.SB.Len() || fresh.SB.DrainAge() != recycled.SB.DrainAge() ||
		fresh.SB.Forwards != recycled.SB.Forwards {
		t.Errorf("store buffer differs")
	}
	for i := 0; i < fresh.FB.Size(); i++ {
		if fresh.FB.SampleAt(i) != recycled.FB.SampleAt(i) {
			t.Errorf("fill buffer slot %d: fresh %#x recycled %#x",
				i, fresh.FB.SampleAt(i), recycled.FB.SampleAt(i))
		}
	}
	if (fresh.FI == nil) != (recycled.FI == nil) {
		t.Fatalf("FI presence differs: fresh %v recycled %v", fresh.FI != nil, recycled.FI != nil)
	}
	if fresh.FI != nil {
		// The injector draw streams must be identical: same seed
		// derivation, same thresholds.
		for i, p := range faultinject.Points() {
			if fresh.FI.Fire(p) != recycled.FI.Fire(p) {
				t.Errorf("FI.Fire(%v) draw %d differs", p, i)
			}
			if fresh.FI.Amount(p, 1000) != recycled.FI.Amount(p, 1000) {
				t.Errorf("FI.Amount(%v) draw %d differs", p, i)
			}
		}
	}
	if fresh.refStep != recycled.refStep || fresh.noChain != recycled.noChain ||
		fresh.noXlate != recycled.noXlate || fresh.SpecEnabled != recycled.SpecEnabled ||
		fresh.NoPCID != recycled.NoPCID || fresh.FusedCmovGuards != recycled.FusedCmovGuards {
		t.Errorf("config toggles differ")
	}
	if recycled.interrupted.Load() {
		t.Errorf("recycled core still interrupted")
	}
	if recycled.OnTrap != nil || recycled.OnRetire != nil || recycled.OnSyscall != nil || recycled.OnVMExit != nil {
		t.Errorf("recycled core retains hooks")
	}
}

// TestRecycledCoreMatchesFresh is the reuse differential: a core that
// ran an arbitrary dirty cell and was reinitialised must be observably
// identical to a freshly constructed core under an equivalent scope —
// including the deterministic fault-injection stream — and must then
// execute a program to the exact same architectural and accounting
// state.
func TestRecycledCoreMatchesFresh(t *testing.T) {
	act := faultinject.NewActivation(faultinject.Config{})

	models := []*model.CPU{model.Broadwell(), model.SkylakeClient(), model.IceLakeClient()}
	for _, m := range models {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/dirty=%d", m.Uarch, seed), func(t *testing.T) {
				// Reference: a genuinely fresh core under scope seed 1000+seed.
				fresh := construct(m, newScope(1000+seed, act))

				// Candidate: a fresh core under an unrelated scope, driven
				// through a dirty cell, then reinitialised for a scope
				// equivalent to the reference's.
				victim := construct(m, newScope(555, act))
				dirtyCore(t, victim, seed)
				victim.reinit(m, newScope(1000+seed, act))

				comparePooledCores(t, fresh, victim)

				// Behavioural differential: both cores run the same program
				// and must land in the same state.
				prog := func() *isa.Program {
					a := isa.NewAsm()
					a.MovI(isa.R1, dataBase)
					a.MovI(isa.R2, 42)
					a.Store(isa.R1, 0, isa.R2)
					a.Load(isa.R3, isa.R1, 0)
					a.Call("leaf")
					a.Hlt()
					a.Label("leaf")
					a.Ret()
					return a.MustAssemble(codeBase)
				}
				for _, c := range []*Core{fresh, victim} {
					mapStd(c)
					run(t, c, prog())
				}
				if fresh.Regs != victim.Regs {
					t.Errorf("post-run Regs differ: fresh %v recycled %v", fresh.Regs, victim.Regs)
				}
				if fresh.Cycles != victim.Cycles || fresh.Instret != victim.Instret {
					t.Errorf("post-run accounting differs: fresh %d/%d recycled %d/%d",
						fresh.Cycles, fresh.Instret, victim.Cycles, victim.Instret)
				}
				if fresh.PMC.Read(pmc.Cycles) != victim.PMC.Read(pmc.Cycles) {
					t.Errorf("post-run PMC cycles differ")
				}
			})
		}
	}
}

// TestScopeReleaseRecyclesCore checks the end-to-end pool path: a core
// constructed under a scope returns to the pool when the scope is
// released, and the next construction for the same uarch reuses it.
func TestScopeReleaseRecyclesCore(t *testing.T) {
	m := model.SkylakeClient()
	// Drain any cores earlier tests parked for this uarch.
	for checkoutPooled(m, nil) != nil {
	}

	sc := &simscope.Scope{FaultSeed: 9}
	restore := simscope.Enter(sc)
	c1 := New(m)
	restore()
	sc.Release()

	sc2 := &simscope.Scope{FaultSeed: 10}
	restore = simscope.Enter(sc2)
	c2 := New(m)
	restore()
	if c1 != c2 {
		t.Fatalf("released core was not reused (fresh construction instead)")
	}
	if c2.scope != sc2 {
		t.Fatalf("recycled core not rebound to the new scope")
	}
}

// TestRecycleGenerationGuard checks that the scope-deferred recycle
// becomes a no-op after an explicit Recycle: the core must enter the
// pool exactly once per checkout, never twice.
func TestRecycleGenerationGuard(t *testing.T) {
	m := model.Broadwell()
	for checkoutPooled(m, nil) != nil {
	}

	c := New(m) // no scope: nothing deferred
	gen := c.poolGen.Load()
	c.Recycle()
	if got := c.poolGen.Load(); got != gen+1 {
		t.Fatalf("Recycle did not advance generation: %d -> %d", gen, got)
	}
	// A stale deferred recycle armed with the old generation must not
	// re-pool the core.
	c.recycle(gen)
	if got := c.poolGen.Load(); got != gen+1 {
		t.Fatalf("stale recycle advanced generation: %d", got)
	}
	first := checkoutPooled(m, nil)
	if first != c {
		t.Fatalf("explicit Recycle did not pool the core")
	}
	if second := checkoutPooled(m, nil); second == c {
		t.Fatalf("core entered the pool twice")
	}
}

// TestSMTPairNeverPooled checks that creating an SMT sibling excludes
// both logical cores from the pool — their shared structures must not
// be recycled into two independent cells.
func TestSMTPairNeverPooled(t *testing.T) {
	m := model.SkylakeClient()
	for checkoutPooled(m, nil) != nil {
	}

	a := New(m)
	b := NewSMTSibling(a)
	if !a.noPool || !b.noPool {
		t.Fatalf("SMT pair not excluded from pooling: %v %v", a.noPool, b.noPool)
	}
	a.Recycle()
	b.Recycle()
	if got := checkoutPooled(m, nil); got != nil {
		t.Fatalf("SMT core was pooled anyway")
	}
}

// TestResetClearsChainLinks is the regression test for superblock state
// on reuse: Reset (and therefore pool reinit and recycle, which route
// through the same clearDecodedBlocks) must drop every decoded block,
// the chain links hanging off them, and the dispatch memo, so a reused
// core can never replay a trace formed over a previous owner's code.
func TestResetClearsChainLinks(t *testing.T) {
	c := newUserCore(t, model.SkylakeClient())
	a := isa.NewAsm()
	a.MovI(isa.R1, 0)
	a.Label("loop")
	a.AddI(isa.R1, 1)
	a.CmpI(isa.R1, 60)
	a.Jne("loop")
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))

	linked := false
	for _, b := range c.blocks {
		if b != nil && b.chainTo != nil {
			linked = true
		}
	}
	if !linked {
		t.Fatal("hot loop formed no chain links; the regression test covers nothing")
	}
	c.Reset()
	if len(c.blocks) != 0 {
		t.Errorf("Reset left %d decoded blocks (and their chain links) cached", len(c.blocks))
	}
	if c.lastBlock != nil || c.prevBlock != nil {
		t.Error("Reset left the block dispatch memo populated")
	}
}

// TestReinitClearsChainLinksAndSuperblock checks the pool path directly:
// a dirty core with hot chains reinitialised for a new scope must come
// back with no decoded blocks and with superblock chaining (and the
// other reference modes) back off, exactly like a fresh construction.
func TestReinitClearsChainLinksAndSuperblock(t *testing.T) {
	m := model.SkylakeClient()
	c := construct(m, nil)
	c.noChain, c.noXlate = true, true // cell-local overrides must not survive reuse
	mapStd(c)
	a := isa.NewAsm()
	a.MovI(isa.R1, 0)
	a.Label("loop")
	a.AddI(isa.R1, 1)
	a.CmpI(isa.R1, 40)
	a.Jne("loop")
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))

	c.reinit(m, newScope(4242, nil))
	if len(c.blocks) != 0 {
		t.Errorf("reinit left %d decoded blocks cached", len(c.blocks))
	}
	if c.lastBlock != nil || c.prevBlock != nil {
		t.Error("reinit left the block dispatch memo populated")
	}
	if c.refStep || c.noChain || c.noXlate {
		t.Error("reinit did not turn the reference modes back off")
	}
}
