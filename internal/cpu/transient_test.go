package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spectrebench/internal/faultinject"
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
	"spectrebench/internal/model"
	"spectrebench/internal/pmc"
)

// TestSpeculateAllocFree runs a loop whose branch follows an LCG bit, so
// the conditional predictor keeps mispredicting, and whose wrong paths
// store (exercising the window's store map). Once warm, re-running it
// opens many transient windows and allocates nothing.
func TestSpeculateAllocFree(t *testing.T) {
	a := isa.NewAsm()
	a.MovI(isa.R4, dataBase)
	a.MovI(isa.R9, 200)
	a.Label("loop")
	a.MovI(isa.R2, 1103515245)
	a.Mul(isa.R1, isa.R2)
	a.AddI(isa.R1, 12345)
	a.Mov(isa.R3, isa.R1)
	a.ShrI(isa.R3, 16)
	a.AndI(isa.R3, 1)
	a.CmpI(isa.R3, 0)
	a.Jeq("skip")
	a.Store(isa.R4, 0, isa.R1)
	a.Store(isa.R4, 8, isa.R3)
	a.Label("skip")
	a.SubI(isa.R9, 1)
	a.CmpI(isa.R9, 0)
	a.Jne("loop")
	a.Hlt()
	p := a.MustAssemble(codeBase)

	c := newUserCore(t, model.Broadwell())
	c.LoadProgram(p)
	runLoop := func() {
		c.halted = false
		c.Regs[isa.R1] = 1
		c.PC = p.Base
		if err := c.RunUntilHalt(1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	runLoop()
	before := c.PMC.Read(pmc.BranchMispredicts)
	allocs := testing.AllocsPerRun(10, runLoop)
	if windows := c.PMC.Read(pmc.BranchMispredicts) - before; windows < 11*20 {
		t.Fatalf("only %d mispredicts over 11 runs; the loop no longer exercises speculation", windows)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per run of %d-iteration mispredicting loop, want 0", allocs, 200)
	}
}

// TestStoreForwardedLoadAllocFree runs a loop that stores a fresh value
// and loads it straight back on an SSB-vulnerable part with SSBD off,
// so every load forwards from the store buffer with a stale pre-store
// value on offer. Once warm, re-running it allocates nothing.
func TestStoreForwardedLoadAllocFree(t *testing.T) {
	a := isa.NewAsm()
	a.MovI(isa.R1, dataBase)
	a.MovI(isa.R9, 200)
	a.Label("loop")
	a.AddI(isa.R2, 1)
	a.Store(isa.R1, 0, isa.R2)
	a.Load(isa.R3, isa.R1, 0) // forwarded; the bypass would see R2-1
	a.SubI(isa.R9, 1)
	a.CmpI(isa.R9, 0)
	a.Jne("loop")
	a.Hlt()
	p := a.MustAssemble(codeBase)

	c := newUserCore(t, model.Zen3())
	c.LoadProgram(p)
	runLoop := func() {
		c.halted = false
		c.PC = p.Base
		if err := c.RunUntilHalt(1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	runLoop()
	before := c.PMC.Read(pmc.MachineClears)
	allocs := testing.AllocsPerRun(10, runLoop)
	if clears := c.PMC.Read(pmc.MachineClears) - before; clears == 0 {
		t.Fatal("no store-bypass window opened; the loop no longer exercises SSB")
	}
	if allocs != 0 {
		t.Errorf("%v allocs per run of %d store-forwarded loads, want 0", allocs, 200)
	}
}

// speculateRef is the per-instruction transient window, kept as the
// oracle for speculate's block walk: every instruction pays the thunk
// probe, the fetch translation and the program search, in that order.
func (c *Core) speculateRef(startPC uint64, seed func(*txn)) {
	if !c.SpecEnabled || c.inTransient {
		return
	}
	c.inTransient = true
	defer func() { c.inTransient = false }()

	t := &c.spec
	t.regs, t.fregs = c.Regs, c.FRegs
	t.eq, t.lt = c.FlagEQ, c.FlagLT
	t.fpuOK = false
	t.stores = t.stores[:0]
	if seed != nil {
		seed(t)
	}

	pc := startPC
	for depth := 0; depth < c.Model.SpecDepth; depth++ {
		if c.code.hasThunks {
			if _, ok := c.Thunks[pc]; ok {
				return
			}
		}
		if _, _, mf := c.xlate(pc, mem.AccessFetch, false); mf != mem.FaultNone {
			return
		}
		in := c.findInstruction(pc)
		if in == nil || in.Op.IsSerializing() {
			return
		}
		next, ok := c.transientStep(t, pc, in)
		if !ok {
			return
		}
		pc = next
	}
}

// compareWindows fails the test on any difference between the shadow
// contexts two windows left behind, or in the durable state they touch
// beyond compareCores: fill-buffer slots, store-buffer forwards and the
// fault injector's consultations.
func compareWindows(t *testing.T, blk, ref *Core, what string) {
	t.Helper()
	bs, rs := &blk.spec, &ref.spec
	if bs.regs != rs.regs || bs.eq != rs.eq || bs.lt != rs.lt || bs.fpuOK != rs.fpuOK {
		t.Errorf("%s: shadow registers diverged:\n blk %v\n ref %v", what, bs.regs, rs.regs)
	}
	for i := range bs.fregs {
		if math.Float64bits(bs.fregs[i]) != math.Float64bits(rs.fregs[i]) {
			t.Errorf("%s: shadow f%d diverged: blk %v ref %v", what, i, bs.fregs[i], rs.fregs[i])
		}
	}
	if !slices.Equal(bs.stores, rs.stores) {
		t.Errorf("%s: transient stores diverged:\n blk %v\n ref %v", what, bs.stores, rs.stores)
	}
	if blk.FB.Sample() != ref.FB.Sample() {
		t.Errorf("%s: fill-buffer position diverged", what)
	}
	for i := 0; i < blk.FB.Size(); i++ {
		if blk.FB.SampleAt(i) != ref.FB.SampleAt(i) {
			t.Errorf("%s: fill-buffer slot %d diverged: blk %#x ref %#x", what, i, blk.FB.SampleAt(i), ref.FB.SampleAt(i))
		}
	}
	if blk.SB.Forwards != ref.SB.Forwards {
		t.Errorf("%s: store-buffer forwards diverged: blk %d ref %d", what, blk.SB.Forwards, ref.SB.Forwards)
	}
	for _, p := range faultinject.Points() {
		if blk.FI.Checks(p) != ref.FI.Checks(p) || blk.FI.Fired(p) != ref.FI.Fired(p) {
			t.Errorf("%s: injector point %v diverged: blk %d/%d ref %d/%d", what, p,
				blk.FI.Checks(p), blk.FI.Fired(p), ref.FI.Checks(p), ref.FI.Fired(p))
		}
	}
}

// TestSpeculateMatchesPerInstructionOracle opens a transient window at
// every PC of the differential fuzzer's programs (and at a few addresses
// just outside them, the JIT thunk and an unmapped one) on two identical
// cores: one walks decoded blocks (speculate), the other steps one
// instruction at a time (speculateRef). Each window starts from the
// cores' architectural state and one of several shadow perturbations:
// none, a data base moved to a page end, a stack pointer at the bottom
// of its mapping, a forced-enabled FPU with flipped flags, and indirect
// jumps aimed at the thunk. After every window the shadow context and
// every durable effect must match. Between rounds both cores run on
// architecturally and replace their JIT program, so windows also walk
// freshly decoded code after a generation bump.
func TestSpeculateMatchesPerInstructionOracle(t *testing.T) {
	models := []*model.CPU{model.SkylakeClient(), model.CascadeLake(), model.Zen3()}
	poisons := []func(*txn){
		nil,
		func(t *txn) { t.regs[isa.R10] = dataBase + 63*mem.PageSize + 8 },
		func(t *txn) { t.regs[isa.SP] = stackTop - 16*mem.PageSize + 16 },
		func(t *txn) { t.fpuOK, t.eq, t.lt = true, !t.eq, !t.lt },
		func(t *txn) { t.regs[isa.R14] = jitThunkPC },
	}
	var windows, stackStores, links, pageLinks int
	for seed := uint64(1); seed <= 16; seed++ {
		m := models[seed%uint64(len(models))]
		blk := newFuzzCore(t, m, seed, true)
		ref := newFuzzCore(t, m, seed, true)
		for round := 0; round < 3; round++ {
			if round > 0 {
				blk.Thunks[jitThunkPC](blk)
				ref.Thunks[jitThunkPC](ref)
			}
			blkErr, refErr := blk.Run(300), ref.Run(300)
			if (blkErr == nil) != (refErr == nil) || (blkErr != nil && blkErr.Error() != refErr.Error()) {
				t.Fatalf("seed %d: run errors diverged: blk %v ref %v", seed, blkErr, refErr)
			}
			p := blk.findProgram(fuzzBase)
			end := p.Base + uint64(len(p.Code))*isa.InstrBytes
			pcs := []uint64{jitThunkPC, 0}
			for pc := p.Base - 2*isa.InstrBytes; pc < end+2*isa.InstrBytes; pc += isa.InstrBytes {
				pcs = append(pcs, pc)
			}
			for _, pc := range pcs {
				for i, poison := range poisons {
					blk.speculate(pc, poison)
					ref.speculateRef(pc, poison)
					windows++
					for _, s := range blk.spec.stores {
						if s.pa >= stackTop-16*mem.PageSize && s.pa < stackTop {
							stackStores++
						}
					}
					what := fmt.Sprintf("seed %d round %d window at %#x poison %d", seed, round, pc, i)
					compareWindows(t, blk, ref, what)
					compareCores(t, ref, blk, seed)
					if t.Failed() {
						t.Fatalf("%s diverged", what)
					}
				}
			}
		}
		for _, b := range blk.blocks {
			if b != nil && b.specTo != nil {
				links++
				if b.specTo.vpn != b.vpn {
					pageLinks++
				}
			}
		}
		// The injectors must still be in the same state: their next
		// draws agree.
		for _, p := range faultinject.Points() {
			if a, b := blk.FI.Amount(p, 1<<62), ref.FI.Amount(p, 1<<62); a != b {
				t.Fatalf("seed %d: injector streams diverged at %v", seed, p)
			}
		}
	}
	t.Logf("%d windows, %d transient stack stores, %d transient exit edges (%d across a page)", windows, stackStores, links, pageLinks)
	if stackStores == 0 {
		t.Error("no window pushed onto the stack; the oracle no longer covers transient calls")
	}
	if links == 0 || pageLinks == 0 {
		t.Errorf("windows memoised %d exit edges, %d across a page; the oracle no longer covers block heads", links, pageLinks)
	}
}

// TestTxnStoreSetMatchesMap checks the window's append-only store set
// against a map: after any sequence of stores, forward returns the
// youngest value stored to an address and nothing for the rest.
func TestTxnStoreSetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var tx txn
	for round := 0; round < 200; round++ {
		tx.stores = tx.stores[:0]
		ref := map[uint64]uint64{}
		for n := r.Intn(80); n > 0; n-- {
			pa, v := uint64(r.Intn(16))*8, r.Uint64()
			tx.store(pa, v)
			ref[pa] = v
		}
		for pa := uint64(0); pa < 17*8; pa += 8 {
			got, ok := tx.forward(pa)
			want, wantOK := ref[pa]
			if got != want || ok != wantOK {
				t.Fatalf("round %d: forward(%#x) = %#x/%v, want %#x/%v", round, pa, got, ok, want, wantOK)
			}
		}
	}
}
