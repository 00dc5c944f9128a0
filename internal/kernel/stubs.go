package kernel

import (
	"spectrebench/internal/cpu"
	"spectrebench/internal/isa"
)

// buildStubs assembles the kernel entry/exit stubs and the in-kernel
// indirect-call worker according to the active mitigation set. These run
// as real simulated code so every mitigation instruction (swapgs fence,
// CR3 swap, VERW, IBRS MSR writes, retpolines) is executed — and costed
// — organically on every boundary crossing.
//
// Register convention: R14 is kernel-clobbered (like rcx/r11 for x86
// syscall); R12/R13 are scratch inside the kernel after user registers
// have been saved by the dispatch thunk.
func (k *Kernel) buildStubs() {
	a := isa.NewAsm()

	// ---- syscall entry -------------------------------------------------
	a.Label("entry")
	a.Swapgs()
	if k.Mit.SpectreV1 {
		// "lfence after swapgs" (Table 1): stop Spectre V1 speculation
		// past the kernel entry.
		a.Lfence()
	}
	if k.Mit.PTI {
		// Switch from the user page table to the full kernel table.
		a.MovI(isa.R14, KernDataBase+trampKernelCR3)
		a.Load(isa.R14, isa.R14, 0)
		a.MovCR3(isa.R14)
	}
	if k.Mit.SpectreV2 == V2IBRS {
		// Legacy IBRS: restrict indirect speculation for the duration
		// of kernel execution. An MSR write on every entry (§5.3).
		a.MovI(isa.R14, KernDataBase+trampKernSC)
		a.Load(isa.R14, isa.R14, 0)
		a.Wrmsr(cpu.MSRSpecCtrl, isa.R14)
	}
	a.Jmp("dispatch") // lands on the dispatch thunk address

	// ---- syscall exit --------------------------------------------------
	a.Label("exit")
	if k.Mit.SpectreV2 == V2IBRS {
		a.MovI(isa.R14, KernDataBase+trampUserSC)
		a.Load(isa.R14, isa.R14, 0)
		a.Wrmsr(cpu.MSRSpecCtrl, isa.R14)
	}
	if k.Mit.MDSClear {
		// Clear µarch buffers on every kernel→user transition (§5.2).
		a.Verw()
	}
	if k.Mit.PTI {
		a.MovI(isa.R14, KernDataBase+trampUserCR3)
		a.Load(isa.R14, isa.R14, 0)
		a.MovCR3(isa.R14)
	}
	a.Swapgs()
	a.Sysret()

	// ---- in-kernel indirect-call worker ---------------------------------
	// Syscall handlers perform R13 dispatch-table calls through R12 —
	// the VFS-style indirect branches that retpolines/(e)IBRS protect.
	a.Label("kcall")
	a.Label("kcall_loop")
	a.CmpI(isa.R13, 0)
	a.Jeq("kcall_done")
	EmitIndirectCall(a, k.Mit.SpectreV2, isa.R12)
	a.SubI(isa.R13, 1)
	a.Jmp("kcall_loop")
	a.Label("kcall_done")
	a.Jmp("post") // lands on the post thunk address

	// ---- a representative kernel function -------------------------------
	a.Label("kfunc")
	a.AddI(isa.R12, 0) // a couple of ALU ops stand in for handler work
	a.Ret()

	// ---- generic retpoline thunk (__x86_indirect_thunk_r12) -------------
	EmitRetpolineThunk(a, isa.R12)

	// ---- RSB stuffing helper --------------------------------------------
	// (performed Go-side via RSB.Fill; this label is the benign target.)
	a.Label("rsb_benign")
	a.Ret()

	// Placeholder labels for the host-Go thunk jumps; their real targets
	// are patched below.
	a.Label("dispatch")
	a.Label("post")
	a.Hlt()

	k.stubs = a.MustAssemble(KernTextBase)
	k.entryPC = k.stubs.LabelAddr("entry")
	k.exitPC = k.stubs.LabelAddr("exit")
	k.kcallPC = k.stubs.LabelAddr("kcall")
	k.kfuncPC = k.stubs.LabelAddr("kfunc")

	// Patch the thunk jumps onto their magic addresses.
	k.patchJump("dispatch-jmp", k.stubs.LabelAddr("entry"), k.dispatchThunkPC())
	k.patchJump("post-jmp", k.stubs.LabelAddr("kcall_done"), k.postThunkPC())
}

// patchJump rewrites the first JMP at or after fromPC to land on target.
// It runs once at kernel construction over the static stub program, so
// the panic below is a registration-time programming bug in the stub
// text — it cannot be reached from experiment input.
func (k *Kernel) patchJump(what string, fromPC, target uint64) {
	for i := int((fromPC - k.stubs.Base) / isa.InstrBytes); i < len(k.stubs.Code); i++ {
		if k.stubs.Code[i].Op == isa.JMP {
			k.stubs.Code[i].Target = target
			k.stubs.Code[i].Label = what
			return
		}
	}
	panic("kernel: no JMP to patch for " + what)
}

// EmitIndirectCall emits "call *r" protected per the Spectre V2 mode:
// the kernel's own lowering of an indirect call, exported so code that
// runs in kernel mode (the §6 probe's victim branch) is compiled the
// way the kernel compiles its handlers. Under V2RetpolineGeneric it
// calls the thunk EmitRetpolineThunk places in the same program.
func EmitIndirectCall(a *isa.Asm, mode SpectreV2Mode, r isa.Reg) {
	switch mode {
	case V2RetpolineGeneric:
		a.Call("retp_thunk")
	case V2RetpolineAMD:
		// lfence; call — the AMD-recommended (later withdrawn) variant.
		a.Lfence()
		a.CallInd(r)
	default:
		// V2Off, V2IBRS, V2EIBRS: a plain indirect call; protection (if
		// any) comes from MSR state.
		a.CallInd(r)
	}
}

// EmitRetpolineThunk emits the generic retpoline thunk for register r
// (__x86_indirect_thunk_r) under the label "retp_thunk".
func EmitRetpolineThunk(a *isa.Asm, r isa.Reg) {
	a.Label("retp_thunk")
	a.Call("retp_set")
	a.Label("retp_capture") // RSB-predicted landing: speculation spins here
	a.Pause()
	a.Lfence()
	a.Jmp("retp_capture")
	a.Label("retp_set")
	a.Store(isa.SP, 0, r) // overwrite return address with real target
	a.Ret()               // architectural jump to *r; RSB mispredicts into the capture loop
}
