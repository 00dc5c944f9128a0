package cpu

import (
	"errors"
	"testing"

	"spectrebench/internal/faultinject"
	"spectrebench/internal/isa"
	"spectrebench/internal/model"
	"spectrebench/internal/simscope"
)

func TestAlignmentFaultOnPageStraddle(t *testing.T) {
	c := newUserCore(t, model.Broadwell())
	var got Fault
	c.OnTrap = func(_ *Core, f Fault) TrapAction {
		got = f
		return TrapSkip
	}
	a := isa.NewAsm()
	a.MovI(isa.R1, dataBase+0xffc) // 8-byte access straddles the page end
	a.Load(isa.R2, isa.R1, 0)
	a.MovI(isa.R3, 9)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if got.Kind != FaultAlign || got.VA != dataBase+0xffc {
		t.Errorf("fault = %+v, want alignment-check at %#x", got, dataBase+0xffc)
	}
	if c.Regs[isa.R3] != 9 {
		t.Error("execution did not resume after skipped fault")
	}
}

func TestAlignmentFaultOnStore(t *testing.T) {
	c := newUserCore(t, model.Broadwell())
	var got Fault
	c.OnTrap = func(_ *Core, f Fault) TrapAction {
		got = f
		return TrapSkip
	}
	a := isa.NewAsm()
	a.MovI(isa.R1, dataBase+0x1ffd)
	a.MovI(isa.R2, 42)
	a.Store(isa.R1, 0, isa.R2)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if got.Kind != FaultAlign {
		t.Errorf("fault = %+v, want alignment-check", got)
	}
	if c.Phys.Read64(dataBase+0x1ffd) != 0 {
		t.Error("straddling store must not reach memory")
	}
}

func TestAlignedAccessesUnaffected(t *testing.T) {
	// The boundary case: the last aligned slot of a page is fine.
	c := newUserCore(t, model.Broadwell())
	a := isa.NewAsm()
	a.MovI(isa.R1, dataBase+0xff8)
	a.MovI(isa.R2, 7)
	a.Store(isa.R1, 0, isa.R2)
	a.Load(isa.R3, isa.R1, 0)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if c.Regs[isa.R3] != 7 {
		t.Errorf("r3 = %d, want 7", c.Regs[isa.R3])
	}
}

func TestCycleBudgetStopsRunaway(t *testing.T) {
	c := newUserCore(t, model.Broadwell())
	c.CycleBudget = 10_000
	a := isa.NewAsm()
	a.Label("spin")
	a.Jmp("spin")
	p := a.MustAssemble(codeBase)
	c.LoadProgram(p)
	c.PC = p.Base
	err := c.RunUntilHalt(100_000_000)
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("err = %v, want ErrCycleBudget", err)
	}
}

func TestInterruptStopsCore(t *testing.T) {
	c := newUserCore(t, model.Broadwell())
	a := isa.NewAsm()
	a.Nop()
	a.Nop()
	a.Hlt()
	p := a.MustAssemble(codeBase)
	c.LoadProgram(p)
	c.PC = p.Base
	c.Interrupt()
	err := c.Step()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// The flag is one-shot: the next step proceeds normally.
	if err := c.Step(); err != nil {
		t.Fatalf("step after interrupt clear: %v", err)
	}
}

func TestInjectorDerivedAtCoreCreation(t *testing.T) {
	restore := simscope.Enter(&simscope.Scope{FaultSeed: 42, Fault: faultinject.NewActivation(faultinject.Config{})})
	c := New(model.Broadwell())
	restore()
	if c.FI == nil {
		t.Fatal("core created under a faulted scope must carry an injector")
	}
	// SMT siblings share the physical core's injector.
	sib := NewSMTSibling(c)
	if sib.FI != c.FI {
		t.Error("SMT sibling must share the injector")
	}
	if New(model.Broadwell()).FI != nil {
		t.Error("core created outside a faulted scope must have a nil injector")
	}
}
