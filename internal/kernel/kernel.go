package kernel

import (
	"fmt"

	"spectrebench/internal/cpu"
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
)

// Virtual address-space layout. User space occupies the low half; kernel
// text/data live high, mapped supervisor+global in every kernel table.
const (
	UserCodeBase  = 0x0040_0000
	UserDataBase  = 0x0100_0000
	UserStackTop  = 0x0800_0000
	UserStackPgs  = 64
	UserMmapBase  = 0x2000_0000
	KernTextBase  = 0x8000_0000 // entry/exit stubs, kcall loop, kernel funcs
	KernDataBase  = 0x8100_0000 // trampoline slots, FPU save areas
	KernModBase   = 0x8200_0000 // registered kernel-module code (probe support)
	kernTextPages = 16
	kernDataPages = 64
)

// Trampoline data slots (offsets into KernDataBase). The entry/exit
// stubs read these; the page is mapped into PTI user tables too, like
// KPTI's cpu-entry area.
const (
	trampKernelCR3 = 0  // current process's kernel-table CR3
	trampUserCR3   = 8  // current process's user-table CR3
	trampKernSC    = 16 // SPEC_CTRL value for kernel mode (IBRS modes)
	trampUserSC    = 24 // SPEC_CTRL value for user mode
)

// rsbBenign returns the harmless address RSB stuffing points at.
func (k *Kernel) rsbBenign() uint64 { return k.stubs.LabelAddr("rsb_benign") }

// ProcState is a process's scheduler state.
type ProcState int

// Process states.
const (
	ProcReady ProcState = iota
	ProcRunning
	ProcBlocked
	ProcExited
)

// Proc is a simulated process (or thread — threads share page tables).
type Proc struct {
	PID  int
	Name string

	KPT *mem.PageTable // full table (kernel + user mappings)
	UPT *mem.PageTable // PTI user table (user mappings + trampoline); == KPT without PTI

	State ProcState

	// Saved user context (filled at syscall entry / switch).
	Regs        [isa.NumRegs]uint64
	FRegs       [isa.NumFRegs]float64
	FlagEQ      bool
	FlagLT      bool
	UserPC      uint64
	SpecCtrlSSB bool // SSBD requested via prctl or implied by seccomp policy

	Seccomp   bool
	SSBDPrctl bool
	// seccompAllowed, when nonzero, is a bitmask of permitted syscall
	// numbers after SysSeccomp installed a filter; violations kill the
	// process (SECCOMP_RET_KILL semantics).
	seccompAllowed uint64

	// sigHandler, when nonzero, receives user-mode page faults (a
	// minimal SIGSEGV handler — how Meltdown-style attacks survive the
	// faults they provoke). The handler runs with the faulting
	// register state; R14 holds the faulting address.
	sigHandler uint64

	// Pending syscall continuation (set while blocked in a syscall).
	pending *syscallCtx

	// Demand-paging regions: VPN → mapped lazily on first touch.
	lazy map[uint64]lazyPage

	// Open file descriptors.
	fds map[int]fileLike

	nextFD   int
	mmapNext uint64
	exitCode uint64

	// fpuSaveArea is this process's kernel save slot for FPU state.
	fpuSaveArea uint64
}

type lazyPage struct {
	writable bool
}

// Kernel is the simulated operating system.
type Kernel struct {
	C   *cpu.Core
	Mit Mitigations

	procs   map[int]*Proc
	ready   []*Proc
	cur     *Proc
	lastRun *Proc // most recently descheduled process (for switch-cost accounting after exits)
	nextPID int
	// live counts non-exited processes; the scheduler polls it every
	// step, so it is maintained at the three creation sites and in
	// exitProc rather than recounted from the map.
	live int

	// fpuOwner is the process whose state is live in the FPU registers
	// under lazy FPU switching.
	fpuOwner *Proc

	// Assembled kernel text.
	stubs *isa.Program
	// Entry points within the stubs.
	entryPC, exitPC, kcallPC, kfuncPC uint64

	// syscall dispatch context for the thunk continuation.
	inflight *syscallCtx

	// bounce is the read/write copy buffer (see bounceBuf); it grows to
	// the largest count seen.
	bounce []byte

	// Registered kernel modules (supervisor code reachable via SYS_KMOD).
	nextModBase uint64

	// SpecCtrlOverride, when non-nil, pins IA32_SPEC_CTRL to a fixed
	// value for every process in both modes — how the §6 probe holds
	// IBRS on or off independent of mitigation policy.
	SpecCtrlOverride *uint64

	// OpenFileProvider, when set, supplies the backing for SysOpen
	// (args: file id and size hint). The VM workloads use it to mount a
	// real filesystem over the hypervisor's emulated disk.
	OpenFileProvider func(id, sizeHint uint64) ExternalFile

	// Statistics.
	Syscalls        uint64
	ContextSwitches uint64
	PageFaults      uint64
	FPUTraps        uint64
	// SyscallRestarts counts injected EINTR interruptions transparently
	// restarted by the dispatch path (faultinject.SyscallEINTR).
	SyscallRestarts uint64
}

// syscallCtx carries one in-progress syscall across the thunk boundary.
type syscallCtx struct {
	proc    *Proc
	nr      uint64
	args    [5]uint64
	retried bool
	// done marks that the handler already arranged the continuation
	// itself (exit, yield) and no generic completion must run.
	done bool
}

// New boots a kernel on the core with the given mitigation set: it maps
// kernel text/data, assembles the mitigation-dependent entry/exit stubs,
// installs LSTAR and trap hooks, and applies boot-time MSR state.
func New(c *cpu.Core, mit Mitigations) *Kernel {
	k := &Kernel{
		C:       c,
		Mit:     mit,
		procs:   make(map[int]*Proc),
		nextPID: 1,

		nextModBase: KernModBase,
	}
	k.loadStubs()
	c.LoadProgram(k.stubs)
	c.SetMSR(cpu.MSRLStar, k.entryPC)
	c.OnTrap = k.handleTrap
	c.RegisterThunk(k.dispatchThunkPC(), k.dispatchThunk)
	c.RegisterThunk(k.postThunkPC(), k.postThunk)

	// Boot-time SPEC_CTRL: eIBRS is enabled once and left on.
	if mit.SpectreV2 == V2EIBRS {
		c.SetMSR(cpu.MSRSpecCtrl, cpu.SpecCtrlIBRS)
	}
	return k
}

// Thunk addresses live inside the kernel text page but past the
// assembled stubs.
func (k *Kernel) dispatchThunkPC() uint64 { return KernTextBase + 0xe00 }
func (k *Kernel) postThunkPC() uint64     { return KernTextBase + 0xe10 }

// mapKernelInto installs the kernel's global mappings into a page table.
func (k *Kernel) mapKernelInto(pt *mem.PageTable) {
	pt.MapRange(KernTextBase, KernTextBase, kernTextPages, false, false, false, true)
	pt.MapRange(KernDataBase, KernDataBase, kernDataPages, true, false, true, true)
	pt.MapRange(KernModBase, KernModBase, 16, false, false, false, true)
}

// mapTrampolineInto installs the minimal PTI user-table kernel footprint:
// the stub text page and the trampoline data page.
func (k *Kernel) mapTrampolineInto(pt *mem.PageTable) {
	pt.MapRange(KernTextBase, KernTextBase, 1, false, false, false, true)
	pt.MapRange(KernDataBase, KernDataBase, 1, true, false, true, true)
}

// populateProcTables installs a new process's mappings: the kernel's
// global footprint plus the user code/data/stack windows into kpt, and
// the user windows plus the trampoline into upt (nil without PTI). Both
// the cold NewProcess path and the checkpoint template builder call
// this, so forked tables are the cold tables by construction.
func (k *Kernel) populateProcTables(kpt, upt *mem.PageTable, physBase uint64, codePages int, extra []Region) {
	k.mapKernelInto(kpt)

	// User mappings. Physical backing is identity-mapped from a
	// per-process physical window so processes do not alias.
	kpt.MapRange(UserCodeBase, physBase+UserCodeBase, codePages, false, true, false, false)
	kpt.MapRange(UserDataBase, physBase+UserDataBase, 512, true, true, true, false)
	stackBase := uint64(UserStackTop - UserStackPgs*mem.PageSize)
	kpt.MapRange(stackBase, physBase+stackBase, UserStackPgs, true, true, true, false)
	for _, r := range extra {
		kpt.MapRange(r.VA, physBase+r.VA, r.Pages, r.Writable, true, r.NX, false)
	}

	if upt != nil {
		upt.MapRange(UserCodeBase, physBase+UserCodeBase, codePages, false, true, false, false)
		upt.MapRange(UserDataBase, physBase+UserDataBase, 512, true, true, true, false)
		upt.MapRange(stackBase, physBase+stackBase, UserStackPgs, true, true, true, false)
		for _, r := range extra {
			upt.MapRange(r.VA, physBase+r.VA, r.Pages, r.Writable, true, r.NX, false)
		}
		k.mapTrampolineInto(upt)
	}
}

// Region describes an extra user mapping installed at process creation
// in addition to the standard code/data/stack windows. The physical
// backing is identity-mapped from the process's physical window, like
// every other user mapping.
type Region struct {
	VA       uint64
	Pages    int
	Writable bool
	NX       bool
}

// NewProcess creates a process running prog (based at UserCodeBase),
// with a stack and a data region mapped.
func (k *Kernel) NewProcess(name string, prog *isa.Program) *Proc {
	return k.NewProcessWithRegions(name, prog, nil)
}

// NewProcessWithRegions creates a process with extra user mappings
// beyond the standard windows (the JS engine maps its heap and IC site
// table this way). Folding the regions into process creation lets the
// checkpoint template cover them too: the region list is part of the
// template key, so a forked table carries the full address space.
func (k *Kernel) NewProcessWithRegions(name string, prog *isa.Program, extra []Region) *Proc {
	pid := k.nextPID
	k.nextPID++
	kpcid := uint16(pid * 2 % 4096)
	upcid := uint16((pid*2 + 1) % 4096)

	p := &Proc{
		PID:      pid,
		Name:     name,
		State:    ProcReady,
		fds:      make(map[int]fileLike),
		lazy:     make(map[uint64]lazyPage),
		nextFD:   3,
		mmapNext: UserMmapBase,
	}
	// Page tables. The mappings are a pure function of (PTI, codePages,
	// pid), so they are forked from a frozen template instead of being
	// repopulated entry by entry.
	codePages := int(prog.SizeBytes()/mem.PageSize) + 1
	img := k.procTableImage(pid, codePages, extra)
	p.KPT = k.C.PTs.NewTableFrom(img.kpt, kpcid)
	if k.Mit.PTI {
		p.UPT = k.C.PTs.NewTableFrom(img.upt, upcid)
	} else {
		p.UPT = p.KPT
	}

	// FPU save area in kernel data space.
	p.fpuSaveArea = KernDataBase + mem.PageSize + uint64(pid)*256

	p.Regs[isa.SP] = UserStackTop
	p.UserPC = prog.Base

	k.C.LoadProgram(prog)
	k.procs[pid] = p
	k.live++
	k.ready = append(k.ready, p)
	return p
}

// userPhys translates a user virtual address through the process's full
// table for kernel-side copies (the kernel always uses KPT).
func (k *Kernel) userPhys(p *Proc, va uint64, acc mem.Access) (uint64, error) {
	pa, _, fault := p.KPT.Translate(va, acc, true)
	if fault != mem.FaultNone {
		// Try demand mapping.
		if k.demandMap(p, va) {
			pa, _, fault = p.KPT.Translate(va, acc, true)
		}
		if fault != mem.FaultNone {
			return 0, fmt.Errorf("kernel: bad user address %#x (%v)", va, fault)
		}
	}
	return pa, nil
}

// copyToUser writes buf into the process's memory at va, charging a
// representative memcpy cost (~16 bytes/cycle).
func (k *Kernel) copyToUser(p *Proc, va uint64, buf []byte) error {
	for len(buf) > 0 {
		pa, err := k.userPhys(p, va, mem.AccessWrite)
		if err != nil {
			return err
		}
		n := mem.PageSize - (va & mem.PageMask)
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		k.C.Phys.WriteBytes(pa, buf[:n])
		buf = buf[n:]
		va += n
	}
	return nil
}

// copyFromUser reads len(buf) bytes from the process's memory at va.
func (k *Kernel) copyFromUser(p *Proc, va uint64, buf []byte) error {
	for len(buf) > 0 {
		pa, err := k.userPhys(p, va, mem.AccessRead)
		if err != nil {
			return err
		}
		n := mem.PageSize - (va & mem.PageMask)
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		k.C.Phys.ReadBytes(pa, buf[:n])
		buf = buf[n:]
		va += n
	}
	return nil
}

// copyCost returns the cycle cost charged for an n-byte kernel copy,
// plus the Spectre V1 masking cmov when enabled (≈ free, §4.6).
func (k *Kernel) copyCost(n int) uint64 {
	c := uint64(n)/16 + 4
	if k.Mit.SpectreV1 {
		c++ // array_index_nospec-style mask on the bounds check
	}
	return c
}

// RegisterKernelModule maps supervisor code (e.g. the §6 probe's kernel
// victim) and returns its program. Modules are reachable from user space
// via SYS_KMOD, which jumps to the module entry in kernel mode.
func (k *Kernel) RegisterKernelModule(build func(a *isa.Asm)) *isa.Program {
	a := isa.NewAsm()
	build(a)
	prog := a.MustAssemble(k.nextModBase)
	k.nextModBase += (prog.SizeBytes()/mem.PageSize + 1) * mem.PageSize
	k.C.LoadProgram(prog)
	return prog
}

// Current returns the currently scheduled process.
func (k *Kernel) Current() *Proc { return k.cur }

// Proc returns the process with the given pid, or nil.
func (k *Kernel) Proc(pid int) *Proc { return k.procs[pid] }

// LiveProcs returns the number of non-exited processes.
func (k *Kernel) LiveProcs() int { return k.live }
