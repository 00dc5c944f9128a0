package cpu

import (
	"testing"

	"spectrebench/internal/isa"
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
