package cpu

import (
	"strings"
	"testing"

	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
	"spectrebench/internal/model"
	"spectrebench/internal/pmc"
)

func TestFloatingPointOps(t *testing.T) {
	c := newUserCore(t, model.IceLakeClient())
	a := isa.NewAsm()
	a.FMovI(0, 6.0)
	a.FMovI(1, 1.5)
	a.FAdd(0, 1) // 7.5
	a.FMul(0, 1) // 11.25
	a.FDiv(0, 1) // 7.5
	a.FToI(isa.R1, 0)
	a.MovI(isa.R2, 4)
	a.IToF(2, isa.R2)
	a.MovI(isa.R3, dataBase)
	a.FStore(isa.R3, 0, 0)
	a.FLoad(3, isa.R3, 0)
	a.FToI(isa.R4, 3)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if c.Regs[isa.R1] != 7 {
		t.Errorf("ftoi = %d, want 7 (truncated 7.5)", c.Regs[isa.R1])
	}
	if c.FRegs[2] != 4.0 {
		t.Errorf("itof = %v", c.FRegs[2])
	}
	if c.Regs[isa.R4] != 7 {
		t.Errorf("fstore/fload roundtrip = %d", c.Regs[isa.R4])
	}
	if c.PMC.Read(pmc.ArithDividerActive) == 0 {
		t.Error("fdiv did not count divider-active cycles")
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	c := newUserCore(t, model.Zen())
	var kind FaultKind
	c.OnTrap = func(_ *Core, f Fault) TrapAction { kind = f.Kind; return TrapSkip }
	a := isa.NewAsm()
	a.MovI(isa.R1, 10)
	a.MovI(isa.R2, 0)
	a.Div(isa.R1, isa.R2)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if kind != FaultDivide {
		t.Errorf("fault = %v, want divide-error", kind)
	}
}

func TestSignedDivision(t *testing.T) {
	c := newUserCore(t, model.Zen())
	a := isa.NewAsm()
	a.MovI(isa.R1, -10)
	a.MovI(isa.R2, 3)
	a.Div(isa.R1, isa.R2)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if int64(c.Regs[isa.R1]) != -3 {
		t.Errorf("-10/3 = %d, want -3 (truncated)", int64(c.Regs[isa.R1]))
	}
}

func TestXsaveXrstorRoundTrip(t *testing.T) {
	c := newUserCore(t, model.Broadwell())
	c.Priv = PrivKernel
	c.FRegs[0], c.FRegs[7], c.FRegs[15] = 1.25, -3.5, 99.0
	a := isa.NewAsm()
	a.MovI(isa.R1, dataBase)
	a.Xsave(isa.R1)
	a.FMovI(0, 0)
	a.FMovI(7, 0)
	a.Xrstor(isa.R1)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if c.FRegs[0] != 1.25 || c.FRegs[7] != -3.5 || c.FRegs[15] != 99.0 {
		t.Errorf("xrstor state: %v %v %v", c.FRegs[0], c.FRegs[7], c.FRegs[15])
	}
}

func TestInvpcidModes(t *testing.T) {
	c := newUserCore(t, model.CascadeLake())
	c.Priv = PrivKernel
	// Warm the TLB.
	a := isa.NewAsm()
	a.MovI(isa.R1, dataBase)
	a.Load(isa.R2, isa.R1, 0)
	a.Invpcid(isa.R3, 2) // flush all
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	// The post-flush HLT fetch repopulates the code page's entry.
	if c.TLB.Valid() > 1 {
		t.Errorf("TLB valid = %d after invpcid-all", c.TLB.Valid())
	}

	// Mode 0: flush by PCID.
	c2 := newUserCore(t, model.CascadeLake())
	c2.Priv = PrivKernel
	b := isa.NewAsm()
	b.MovI(isa.R1, dataBase)
	b.Load(isa.R2, isa.R1, 0)
	b.MovI(isa.R3, 1) // the test table's PCID
	b.Invpcid(isa.R3, 0)
	b.Hlt()
	run(t, c2, b.MustAssemble(codeBase))
	if c2.TLB.Valid() > 1 {
		t.Errorf("TLB valid = %d after invpcid-pcid", c2.TLB.Valid())
	}
}

func TestPrefetchFillsWithoutFaulting(t *testing.T) {
	c := newUserCore(t, model.Zen2())
	a := isa.NewAsm()
	a.MovI(isa.R1, dataBase+0x100)
	a.Raw(isa.Instruction{Op: isa.PREFETCH, Src1: isa.R1})
	// Prefetch of an unmapped address is a no-op, not a fault.
	a.MovI(isa.R2, 0x7777_0000)
	a.Raw(isa.Instruction{Op: isa.PREFETCH, Src1: isa.R2})
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if !c.L1.Probe(dataBase + 0x100) {
		t.Error("prefetch did not fill the line")
	}
}

func TestClflushUnmappedFaults(t *testing.T) {
	c := newUserCore(t, model.Zen2())
	var faulted bool
	c.OnTrap = func(_ *Core, f Fault) TrapAction { faulted = true; return TrapSkip }
	a := isa.NewAsm()
	a.MovI(isa.R1, 0x7777_0000)
	a.Clflush(isa.R1, 0)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if !faulted {
		t.Error("clflush of unmapped memory did not fault")
	}
}

func TestFencesAndPause(t *testing.T) {
	c := newUserCore(t, model.Broadwell())
	a := isa.NewAsm()
	a.MovI(isa.R1, dataBase)
	a.MovI(isa.R2, 1)
	a.Store(isa.R1, 0, isa.R2)
	a.Sfence()
	a.Store(isa.R1, 8, isa.R2)
	a.Mfence()
	a.Pause()
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if c.SB.Len(c.Instret) != 0 {
		t.Errorf("store buffer not drained by fences: %d", c.SB.Len(c.Instret))
	}
}

func TestRdCR3AndMovCR3NoPCID(t *testing.T) {
	c := newUserCore(t, model.Broadwell())
	c.Priv = PrivKernel
	c.NoPCID = true
	a := isa.NewAsm()
	a.MovI(isa.R1, dataBase)
	a.Load(isa.R2, isa.R1, 0) // warm a TLB entry
	a.RdCR3(isa.R3)
	a.MovCR3(isa.R3) // same table, but no-PCID flushes non-globals
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if c.Regs[isa.R3] != c.CR3 {
		t.Errorf("rdcr3 = %#x, cr3 = %#x", c.Regs[isa.R3], c.CR3)
	}
	// The kernel page is Global in newUserCore; the data page is not.
	if c.TLB.Valid() > 2 {
		t.Errorf("TLB valid = %d; no-PCID mov-cr3 should flush non-globals", c.TLB.Valid())
	}
}

func TestRdpmcReadsCounters(t *testing.T) {
	c := newUserCore(t, model.Zen3())
	a := isa.NewAsm()
	a.MovI(isa.R1, 100)
	a.MovI(isa.R2, 4)
	a.Div(isa.R1, isa.R2)
	a.Rdpmc(isa.R3, int64(pmc.ArithDividerActive))
	a.Rdpmc(isa.R4, int64(pmc.Instructions))
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if c.Regs[isa.R3] == 0 {
		t.Error("divider counter reads zero after a div")
	}
	if c.Regs[isa.R4] == 0 {
		t.Error("instruction counter reads zero")
	}
}

func TestVMCALLOutsideGuestIsUD(t *testing.T) {
	c := newUserCore(t, model.Broadwell())
	var kind FaultKind
	c.OnTrap = func(_ *Core, f Fault) TrapAction { kind = f.Kind; return TrapSkip }
	a := isa.NewAsm()
	a.Vmcall()
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if kind != FaultInvalidOp {
		t.Errorf("vmcall outside guest: fault = %v, want #UD", kind)
	}
}

func TestPortIOOutsideGuest(t *testing.T) {
	c := newUserCore(t, model.Broadwell())
	a := isa.NewAsm()
	a.MovI(isa.R2, 0x55)
	a.Out(0x10, isa.R2)
	a.In(isa.R3, 0x10)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if c.Regs[isa.R3] != 0 {
		t.Errorf("bare-metal IN = %#x, want 0", c.Regs[isa.R3])
	}
}

func TestRunStepLimits(t *testing.T) {
	c := newUserCore(t, model.Zen())
	a := isa.NewAsm()
	a.Label("spin")
	a.Jmp("spin")
	c.LoadProgram(a.MustAssemble(codeBase))
	c.PC = codeBase
	if err := c.RunUntilHalt(100); err == nil ||
		!strings.Contains(err.Error(), "no HLT") {
		t.Errorf("RunUntilHalt on a spin loop: %v", err)
	}
	// Run returns nil when the budget runs out without a fault.
	if err := c.Run(10); err != nil {
		t.Errorf("Run = %v", err)
	}
	// Step after HLT returns ErrHalted.
	c2 := newUserCore(t, model.Zen())
	b := isa.NewAsm()
	b.Hlt()
	run(t, c2, b.MustAssemble(codeBase))
	if err := c2.Step(); err != ErrHalted {
		t.Errorf("step after halt = %v", err)
	}
	c2.ClearHalt()
	if c2.Halted() {
		t.Error("ClearHalt failed")
	}
}

func TestFetchFaults(t *testing.T) {
	// Jumping to unmapped memory page-faults at fetch.
	c := newUserCore(t, model.Broadwell())
	var kinds []FaultKind
	c.OnTrap = func(cc *Core, f Fault) TrapAction {
		kinds = append(kinds, f.Kind)
		cc.PC = codeBase + 4 // recover to the HLT below
		return TrapContext
	}
	a := isa.NewAsm()
	a.Jmp("away")
	a.Hlt()
	a.Label("away")
	a.Nop()
	p := a.MustAssemble(codeBase)
	p.Code[0].Target = 0x7700_0000 // retarget into the void
	c.LoadProgram(p)
	c.PC = codeBase
	if err := c.RunUntilHalt(100); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != FaultPage {
		t.Errorf("faults = %v", kinds)
	}

	// Fetching from an NX data page is a page fault.
	c2 := newUserCore(t, model.Broadwell())
	var kind FaultKind
	c2.OnTrap = func(_ *Core, f Fault) TrapAction { kind = f.Kind; return TrapKill }
	c2.PC = dataBase // mapped, but NX
	if err := c2.Run(10); err == nil {
		t.Fatal("expected error")
	}
	if kind != FaultPage {
		t.Errorf("fault = %v, want page fault (NX)", kind)
	}

	// Fetching from an executable page with no loaded instruction is #UD.
	c3 := newUserCore(t, model.Broadwell())
	c3.OnTrap = func(_ *Core, f Fault) TrapAction { kind = f.Kind; return TrapKill }
	c3.PC = codeBase + 0x8000 // mapped executable, nothing loaded there
	if err := c3.Run(10); err == nil {
		t.Fatal("expected error")
	}
	if kind != FaultInvalidOp {
		t.Errorf("fault = %v, want #UD", kind)
	}
}

func TestTrapWithoutHookHalts(t *testing.T) {
	c := newUserCore(t, model.Zen())
	c.OnTrap = nil
	a := isa.NewAsm()
	a.Ud()
	c.LoadProgram(a.MustAssemble(codeBase))
	c.PC = codeBase
	if err := c.Step(); err == nil {
		t.Fatal("expected fault error")
	}
	if !c.Halted() {
		t.Error("core must halt on unhandled trap")
	}
}

// emitTrainedMispredict emits the Spectre-V1-shaped skeleton: a loop
// whose branch is trained not-taken for 8 iterations and taken on the
// 9th, so the gadget emitted by `gadget` (which receives R1 = 0 during
// training, 1 transiently) runs architecturally while training and
// transiently on the final iteration. Architectural execution then
// lands on "done".
func emitTrainedMispredict(a *isa.Asm, gadget func(a *isa.Asm)) {
	a.MovI(isa.R9, 9)
	a.Label("tm_loop")
	a.SubI(isa.R9, 1)
	a.MovI(isa.R1, 0)
	a.MovI(isa.R2, 1)
	a.CmpI(isa.R9, 0)
	a.CmovEq(isa.R1, isa.R2) // r1 = (last iteration)
	a.CmpI(isa.R1, 0)
	a.Jne("tm_done") // trained not-taken; final iteration mispredicts
	gadget(a)
	a.Jmp("tm_loop")
	a.Label("tm_done")
	a.Hlt()
}

func TestTransientWindowStopsAtSerializing(t *testing.T) {
	// The mispredicted path contains WRMSR (serialising): speculation
	// must stop there, leaving the probe line for the transient value
	// (r1=1 → line 1) cold. Training (r1=0) touches line 0 instead.
	c := newUserCore(t, model.Broadwell())
	c.Priv = PrivKernel // wrmsr is privileged; train it architecturally
	a := isa.NewAsm()
	emitTrainedMispredict(a, func(a *isa.Asm) {
		a.Wrmsr(MSRLStar, isa.R13) // serialising (R13 = 0: hook path stays)
		a.Mov(isa.R5, isa.R1)
		a.ShlI(isa.R5, 6)
		a.AddI(isa.R5, probeBase)
		a.Mov(isa.R6, isa.R5)
		a.Load(isa.R7, isa.R6, 0)
	})
	run(t, c, a.MustAssemble(codeBase))
	if !c.L1.Probe(probeBase) {
		t.Fatal("training did not exercise the gadget")
	}
	if c.L1.Probe(probeBase + 64) {
		t.Error("speculation crossed a serialising instruction")
	}
}

func TestTransientFaultEndsWindowOnFixedHardware(t *testing.T) {
	// On a fully fixed part, a transient load to unmapped memory ends
	// the window: the probe load after it must stay cold.
	c := newUserCore(t, model.IceLakeServer())
	a := isa.NewAsm()
	emitTrainedMispredict(a, func(a *isa.Asm) {
		// During training r1=0 keeps the pointer valid; transiently
		// r1=1 swings it to an unmapped page.
		a.MovI(isa.R5, dataBase)
		a.MovI(isa.R6, 0x7777_0000)
		a.CmpI(isa.R1, 1)
		a.CmovEq(isa.R5, isa.R6)
		a.Load(isa.R7, isa.R5, 0) // transient fault on the last run
		a.Mov(isa.R5, isa.R1)
		a.ShlI(isa.R5, 6)
		a.AddI(isa.R5, probeBase)
		a.Load(isa.R8, isa.R5, 0)
	})
	run(t, c, a.MustAssemble(codeBase))
	if !c.L1.Probe(probeBase) {
		t.Fatal("training did not exercise the gadget")
	}
	if c.L1.Probe(probeBase + 64) {
		t.Error("transient execution continued past an unleakable fault")
	}
}

func TestTransientCallRetFollowStack(t *testing.T) {
	// Inside a window, CALL/RET use the transient stack: the helper
	// runs and returns to the call site. The helper touches probe line
	// 2+r1 and the post-return code line 4+r1.
	c := newUserCore(t, model.Broadwell())
	a := isa.NewAsm()
	a.Jmp("start")
	a.Label("helper")
	a.Mov(isa.R5, isa.R1)
	a.AddI(isa.R5, 2)
	a.ShlI(isa.R5, 6)
	a.AddI(isa.R5, probeBase)
	a.Load(isa.R6, isa.R5, 0)
	a.Ret()
	a.Label("start")
	emitTrainedMispredict(a, func(a *isa.Asm) {
		a.Call("helper")
		a.Mov(isa.R5, isa.R1)
		a.AddI(isa.R5, 4)
		a.ShlI(isa.R5, 6)
		a.AddI(isa.R5, probeBase)
		a.Load(isa.R7, isa.R5, 0)
	})
	run(t, c, a.MustAssemble(codeBase))
	if !c.L1.Probe(probeBase + 3*64) {
		t.Error("transient CALL did not execute the helper (line 3)")
	}
	if !c.L1.Probe(probeBase + 5*64) {
		t.Error("transient RET did not return to the call site (line 5)")
	}
}

func TestSpecEnabledFalseStopsAllWindows(t *testing.T) {
	c := newUserCore(t, model.Broadwell())
	c.SpecEnabled = false
	if c.PMC.Read(pmc.ArithDividerActive) != 0 {
		t.Fatal("dirty counters")
	}
	// Even a direct speculate call is a no-op.
	c.speculate(codeBase, nil)
}

func TestFusedCmovGuardsFree(t *testing.T) {
	run := func(fused bool) uint64 {
		c := newUserCore(t, model.IceLakeServer())
		c.FusedCmovGuards = fused
		a := isa.NewAsm()
		a.MovI(isa.R9, 100)
		a.Label("loop")
		a.CmpI(isa.R9, 50)
		a.CmovGe(isa.R1, isa.R9)
		a.CmovLt(isa.R2, isa.R9)
		a.SubI(isa.R9, 1)
		a.CmpI(isa.R9, 0)
		a.Jne("loop")
		a.Hlt()
		run(t, c, a.MustAssemble(codeBase))
		return c.Cycles
	}
	plain := run(false)
	fused := run(true)
	if fused >= plain {
		t.Errorf("fused (%d) should be cheaper than plain (%d)", fused, plain)
	}
	if plain-fused != 200 {
		t.Errorf("fusion saved %d cycles, want exactly 200 (2 cmovs × 100 iters)", plain-fused)
	}
}

func TestResetPreservesProgramsAndMemory(t *testing.T) {
	c := newUserCore(t, model.Zen())
	a := isa.NewAsm()
	a.MovI(isa.R1, 7)
	a.Hlt()
	p := a.MustAssemble(codeBase)
	run(t, c, p)
	c.Phys.Write64(dataBase, 123)
	c.Reset()
	if c.Regs[isa.R1] != 0 {
		t.Error("Reset did not clear registers")
	}
	if c.Phys.Read64(dataBase) != 123 {
		t.Error("Reset must not clear memory")
	}
	c.PC = codeBase
	if err := c.RunUntilHalt(100); err != nil {
		t.Fatalf("re-run after reset: %v", err)
	}
}

func TestLoadProgramReplacesSameBase(t *testing.T) {
	c := newUserCore(t, model.Zen())
	a1 := isa.NewAsm()
	a1.MovI(isa.R1, 1)
	a1.Hlt()
	a2 := isa.NewAsm()
	a2.MovI(isa.R1, 2)
	a2.Hlt()
	c.LoadProgram(a1.MustAssemble(codeBase))
	c.LoadProgram(a2.MustAssemble(codeBase)) // JIT recompilation path
	c.PC = codeBase
	if err := c.RunUntilHalt(10); err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.R1] != 2 {
		t.Errorf("r1 = %d; replacement program did not run", c.Regs[isa.R1])
	}
}

func TestArchCapsMSR(t *testing.T) {
	cases := []struct {
		m        *model.CPU
		meltdown bool
		mds      bool
		eibrs    bool
	}{
		{model.Broadwell(), false, false, false},
		{model.CascadeLake(), true, false, true},
		{model.IceLakeServer(), true, true, true},
		{model.Zen3(), true, true, false},
	}
	for _, cs := range cases {
		c := New(cs.m)
		caps := c.MSR(MSRArchCaps)
		if got := caps&ArchCapRDCLNoMeltdown != 0; got != cs.meltdown {
			t.Errorf("%s: RDCL_NO = %v", cs.m.Uarch, got)
		}
		if got := caps&ArchCapMDSNo != 0; got != cs.mds {
			t.Errorf("%s: MDS_NO = %v", cs.m.Uarch, got)
		}
		if got := caps&ArchCapIBRSAll != 0; got != cs.eibrs {
			t.Errorf("%s: IBRS_ALL = %v", cs.m.Uarch, got)
		}
		// The SSB_NO bit is never set (§4.3).
		if caps&ArchCapSSBNo != 0 {
			t.Errorf("%s: SSB_NO set; no shipping CPU reports it", cs.m.Uarch)
		}
		// ArchCaps is read-only even via SetMSR.
		c.SetMSR(MSRArchCaps, 0)
		if c.MSR(MSRArchCaps) != caps {
			t.Errorf("%s: ARCH_CAPABILITIES is writable", cs.m.Uarch)
		}
	}
}

func TestFaultErrorAndStrings(t *testing.T) {
	f := Fault{Kind: FaultPage, VA: 0x1234, PC: 0x4000}
	if !strings.Contains(f.Error(), "page-fault") || !strings.Contains(f.Error(), "0x1234") {
		t.Errorf("fault error: %s", f.Error())
	}
	for _, k := range []FaultKind{FaultNone, FaultPage, FaultFPUDisabled, FaultInvalidOp, FaultDivide, FaultGP} {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	if PrivUser.String() != "user" || PrivKernel.String() != "kernel" {
		t.Error("priv strings")
	}
}

func TestMemFaultKinds(t *testing.T) {
	// Write to a read-only page (code) faults as a page fault.
	c := newUserCore(t, model.Broadwell())
	var got Fault
	c.OnTrap = func(_ *Core, f Fault) TrapAction { got = f; return TrapSkip }
	a := isa.NewAsm()
	a.MovI(isa.R1, codeBase)
	a.MovI(isa.R2, 1)
	a.Store(isa.R1, 0, isa.R2)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	if got.Kind != FaultPage || got.Access != mem.AccessWrite {
		t.Errorf("fault = %+v", got)
	}
}

func TestOnRetireTraceHook(t *testing.T) {
	c := newUserCore(t, model.Zen())
	var trace []string
	c.OnRetire = func(pc uint64, in *isa.Instruction) {
		trace = append(trace, in.Op.String())
	}
	a := isa.NewAsm()
	a.MovI(isa.R1, 1)
	a.AddI(isa.R1, 2)
	a.Hlt()
	run(t, c, a.MustAssemble(codeBase))
	want := []string{"movi", "addi", "hlt"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("trace[%d] = %q, want %q", i, trace[i], want[i])
		}
	}
}

func TestOnRetireDoesNotSeeTransient(t *testing.T) {
	// The hook observes committed instructions only: a mispredicted
	// branch's wrong path must leave no trace entries.
	c := newUserCore(t, model.Broadwell())
	divs := 0
	c.OnRetire = func(_ uint64, in *isa.Instruction) {
		if in.Op == isa.DIV {
			divs++
		}
	}
	a := isa.NewAsm()
	emitTrainedMispredict(a, func(a *isa.Asm) {
		// Gadget: only ever divides during training (r1=0 → divisor 4);
		// the transient run (r1=1) also "executes" it, but must not
		// appear in the trace.
		a.MovI(isa.R5, 100)
		a.MovI(isa.R6, 4)
		a.Div(isa.R5, isa.R6)
	})
	run(t, c, a.MustAssemble(codeBase))
	if divs != 8 {
		t.Errorf("trace saw %d divs, want exactly the 8 architectural ones", divs)
	}
}
