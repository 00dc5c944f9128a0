package attacks

import (
	"spectrebench/internal/isa"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/pmc"
)

// spectreRSB runs the return-stack-buffer variant (Koruyeh et al.,
// §5.3 of the paper): the attacker plants a stale RSB entry pointing at
// a gadget by calling a trampoline that discards its return address, so
// the victim's next RET consumes the stale prediction and transiently
// executes the gadget. Under RSBStuff the kernel's context-switch RSB
// refill runs between the planting and the victim return.
//
// It returns whether the gadget's divide executed transiently.
func spectreRSB(m *model.CPU, mit kernel.Mitigations) (bool, error) {
	c := pocCore(m)
	defer c.Recycle()

	a := isa.NewAsm()
	a.Jmp("main")

	// The gadget sits immediately after the trampoline call site, so
	// the planted RSB entry points straight at it.
	a.Label("victim_fn")
	a.Call("trampoline")
	a.Label("gadget") // = the stale RSB entry's target
	a.MovI(isa.R1, 12345)
	a.MovI(isa.R2, 6789)
	a.Div(isa.R1, isa.R2)
	a.Label("victim_body")
	// (the trampoline re-enters here architecturally)
	a.MovI(isa.R5, 1)
	a.Ret() // RSB now predicts "gadget"; architectural target is main

	a.Label("trampoline")
	a.AddI(isa.SP, 8) // discard the return address: the RSB entry goes stale
	a.Jmp("victim_body")

	a.Label("main")
	a.Call("victim_fn")
	a.Hlt()

	p := a.MustAssemble(pocCode)
	c.LoadProgram(p)
	c.PC = p.LabelAddr("main")
	c.Regs[isa.SP] = pocStack

	// Run until just before the victim's RET, where the kernel refills
	// the RSB on a context switch under RSBStuff, then continue. The
	// gadget never runs architecturally (R5 is set on the real path and
	// the divide result registers stay untouched there).
	retPC := p.LabelAddr("victim_body") + 1*isa.InstrBytes // the RET
	for i := 0; i < 100_000 && c.PC != retPC; i++ {
		if err := c.Step(); err != nil {
			return false, err
		}
	}
	if mit.RSBStuff {
		benign := p.LabelAddr("main") + 1*isa.InstrBytes // the HLT: harmless
		c.RSB.Fill(benign)
		c.Charge(m.Costs.RSBFill)
	}
	divBefore := c.PMC.Read(pmc.ArithDividerActive)
	if err := c.RunUntilHalt(100_000); err != nil {
		return false, err
	}
	return c.PMC.Read(pmc.ArithDividerActive) > divBefore, nil
}
