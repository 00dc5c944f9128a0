package kernel

import (
	"spectrebench/internal/cpu"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
)

// Syscall numbers (passed in R7; args in R1..R5; result in R0).
const (
	SysExit = iota
	SysGetPID
	SysRead
	SysWrite
	SysMmap
	SysMunmap
	SysYield
	SysFork
	SysPipe
	SysSend
	SysRecv
	SysSelect
	SysPrctl
	SysSeccomp
	SysKMod
	SysNanosleep
	SysThreadSpawn
	SysOpen
	SysClose
	SysGetTSC
	SysSignal

	numSyscalls
)

// Errno-style results (returned as ^0, ^1... in R0).
const (
	EBADF  = ^uint64(8)
	EFAULT = ^uint64(13)
	EINVAL = ^uint64(21)
	ENOSYS = ^uint64(37)
)

// syscallInfo carries per-syscall dispatch metadata: how many in-kernel
// indirect calls the handler performs (the VFS-depth knob that decides
// how much retpoline/(e)IBRS cost a syscall pays) and a base handler
// cost representing its non-boundary work.
type syscallInfo struct {
	name      string
	nIndirect int64
	baseCost  uint64
	handler   func(k *Kernel, ctx *syscallCtx) (ret uint64, blocked bool)
}

var syscallTable [numSyscalls]syscallInfo

func init() {
	syscallTable = [numSyscalls]syscallInfo{
		SysExit:        {"exit", 1, 1500, (*Kernel).sysExit},
		SysGetPID:      {"getpid", 1, 700, (*Kernel).sysGetPID},
		SysRead:        {"read", 4, 900, (*Kernel).sysRead},
		SysWrite:       {"write", 4, 900, (*Kernel).sysWrite},
		SysMmap:        {"mmap", 6, 2000, (*Kernel).sysMmap},
		SysMunmap:      {"munmap", 6, 1800, (*Kernel).sysMunmap},
		SysYield:       {"yield", 2, 700, (*Kernel).sysYield},
		SysFork:        {"fork", 8, 4500, (*Kernel).sysFork},
		SysPipe:        {"pipe", 3, 800, (*Kernel).sysPipe},
		SysSend:        {"send", 6, 1000, (*Kernel).sysSend},
		SysRecv:        {"recv", 6, 1000, (*Kernel).sysRecv},
		SysSelect:      {"select", 5, 1400, (*Kernel).sysSelect},
		SysPrctl:       {"prctl", 2, 200, (*Kernel).sysPrctl},
		SysSeccomp:     {"seccomp", 2, 400, (*Kernel).sysSeccomp},
		SysKMod:        {"kmod", 1, 20, nil}, // special-cased in dispatch
		SysNanosleep:   {"nanosleep", 2, 150, (*Kernel).sysNanosleep},
		SysThreadSpawn: {"thread_spawn", 6, 3000, (*Kernel).sysThreadSpawn},
		SysOpen:        {"open", 5, 600, (*Kernel).sysOpen},
		SysClose:       {"close", 3, 250, (*Kernel).sysClose},
		SysGetTSC:      {"gettsc", 1, 60, (*Kernel).sysGetTSC},
		SysSignal:      {"signal", 2, 200, (*Kernel).sysSignal},
	}
}

// dispatchThunk runs at the end of the entry stub: it saves the user
// context, then routes execution into the in-kernel indirect-call worker
// before the Go handler runs.
func (k *Kernel) dispatchThunk(c *cpu.Core) {
	k.Syscalls++
	k.saveCur()
	p := k.cur

	if c.FI.Fire(faultinject.SyscallEINTR) {
		// Injected weather: the syscall is interrupted before its
		// handler runs and transparently restarted (SA_RESTART
		// semantics). Charge the aborted entry/exit round trip plus the
		// signal-delivery bookkeeping; dispatch then proceeds as the
		// restarted invocation, so user code never observes EINTR.
		k.SyscallRestarts++
		c.Charge(c.Model.Costs.Syscall + c.Model.Costs.Sysret + 600)
	}

	nr := c.Regs[isa.R7]
	ctx := &syscallCtx{proc: p, nr: nr}
	ctx.args = [5]uint64{c.Regs[isa.R1], c.Regs[isa.R2], c.Regs[isa.R3], c.Regs[isa.R4], c.Regs[isa.R5]}
	k.inflight = ctx

	// Seccomp filter: a disallowed syscall kills the process.
	if p.seccompAllowed != 0 && (nr >= 64 || p.seccompAllowed&(1<<nr) == 0) {
		k.inflight = nil
		k.exitProc(p, 128+31) // SIGSYS-style exit
		k.scheduleNext()
		return
	}

	if nr == SysKMod {
		// Jump straight into registered kernel-module code (the §6
		// probe's kernel-mode victim). The module receives the exit
		// stub address in R10 and its argument in R1. Targets outside
		// registered modules (or the user's own executable pages, which
		// the probe uses for shared-address experiments) are rejected.
		target := ctx.args[1] // args[1] = R2: module entry
		if !k.validKModTarget(p, target) {
			k.finishSyscall(ctx, EINVAL)
			return
		}
		c.Regs[isa.R10] = k.exitPC
		c.PC = target
		c.Regs[isa.R1] = ctx.args[0]
		return
	}
	if nr >= numSyscalls || syscallTable[nr].handler == nil {
		k.finishSyscall(ctx, ENOSYS)
		return
	}

	// Route through the indirect-call worker: R12 = target kernel
	// function, R13 = call count for this syscall.
	info := &syscallTable[nr]
	c.Regs[isa.R12] = k.kfuncPC
	c.Regs[isa.R13] = uint64(info.nIndirect)
	c.PC = k.kcallPC
}

// validKModTarget accepts addresses inside registered kernel modules or
// inside the calling process's executable user pages (the speculation
// probe runs its shared branch site from both modes).
func (k *Kernel) validKModTarget(p *Proc, target uint64) bool {
	if target >= KernModBase && target < k.nextModBase {
		return true
	}
	pte, ok := p.KPT.Lookup(target >> 12)
	return ok && pte.Present && !pte.NX
}

// postThunk runs when the indirect-call worker finishes: it executes the
// Go handler semantics and either completes the syscall or blocks.
func (k *Kernel) postThunk(c *cpu.Core) {
	ctx := k.inflight
	k.inflight = nil
	if ctx == nil || ctx.proc != k.cur {
		// A context switch happened underneath us; nothing to do.
		return
	}
	k.runHandler(ctx)
}

// runHandler invokes the syscall handler, blocking or completing.
func (k *Kernel) runHandler(ctx *syscallCtx) {
	info := &syscallTable[ctx.nr]
	if !ctx.retried {
		k.C.Charge(info.baseCost)
	}
	ret, blocked := info.handler(k, ctx)
	if blocked {
		k.blockCur(ctx)
		return
	}
	if ctx.done {
		return // the handler arranged its own continuation
	}
	k.finishSyscall(ctx, ret)
}

// finishSyscall restores the saved user context with R0 = ret and routes
// execution through the mitigation exit stub.
func (k *Kernel) finishSyscall(ctx *syscallCtx, ret uint64) {
	p := ctx.proc
	if p.State == ProcExited {
		k.scheduleNext()
		return
	}
	c := k.C
	c.Regs = p.Regs
	c.FlagEQ, c.FlagLT = p.FlagEQ, p.FlagLT
	c.Regs[isa.R0] = ret
	c.SavedUserPC = p.UserPC
	c.PC = k.exitPC
	p.State = ProcRunning
}

// resumePending re-runs a blocked syscall after wakeup (called when the
// process is rescheduled).
func (k *Kernel) resumePending(p *Proc) {
	ctx := p.pending
	p.pending = nil
	ctx.retried = true
	k.inflight = nil
	k.runHandler(ctx)
}

// ---- handlers -----------------------------------------------------------

func (k *Kernel) sysExit(ctx *syscallCtx) (uint64, bool) {
	ctx.done = true
	k.exitProc(ctx.proc, ctx.args[0])
	k.scheduleNext()
	return 0, false
}

func (k *Kernel) sysGetPID(ctx *syscallCtx) (uint64, bool) {
	return uint64(ctx.proc.PID), false
}

func (k *Kernel) sysGetTSC(ctx *syscallCtx) (uint64, bool) {
	return k.C.Cycles, false
}

// maxRWCount caps the byte count of one read or write. Like Linux's
// MAX_RW_COUNT, a larger count is clamped (the call moves at most this
// many bytes and reports the short count) rather than refused, so a
// guest cannot make the host allocate an arbitrary bounce buffer. A
// count with the top bit set is a negative ssize_t and gets EINVAL.
const maxRWCount = memFileCap

// rwCount decodes a read/write byte count, clamping it to maxRWCount.
func rwCount(arg uint64) (int, bool) {
	if int64(arg) < 0 {
		return 0, false
	}
	return int(min(arg, maxRWCount)), true
}

// bounceBuf returns the kernel's n-byte copy buffer. One buffer serves
// every read and write: each file copies what it is handed, and a
// blocked write re-copies from user memory when it retries, so nothing
// holds on to the bytes across calls.
func (k *Kernel) bounceBuf(n int) []byte {
	if cap(k.bounce) < n {
		k.bounce = make([]byte, n)
	}
	return k.bounce[:n]
}

func (k *Kernel) sysRead(ctx *syscallCtx) (uint64, bool) {
	p := ctx.proc
	fd, bufVA := int(ctx.args[0]), ctx.args[1]
	f, ok := p.fds[fd]
	if !ok {
		return EBADF, false
	}
	n, ok := rwCount(ctx.args[2])
	if !ok {
		return EINVAL, false
	}
	data := k.bounceBuf(n)
	got, blocked := f.read(k, data)
	if blocked {
		return 0, true
	}
	k.C.Charge(k.copyCost(got))
	if err := k.copyToUser(p, bufVA, data[:got]); err != nil {
		return EFAULT, false
	}
	return uint64(got), false
}

func (k *Kernel) sysWrite(ctx *syscallCtx) (uint64, bool) {
	p := ctx.proc
	fd, bufVA := int(ctx.args[0]), ctx.args[1]
	f, ok := p.fds[fd]
	if !ok {
		return EBADF, false
	}
	n, ok := rwCount(ctx.args[2])
	if !ok {
		return EINVAL, false
	}
	buf := k.bounceBuf(n)
	if err := k.copyFromUser(p, bufVA, buf); err != nil {
		return EFAULT, false
	}
	k.C.Charge(k.copyCost(n))
	wrote, blocked := f.write(k, buf)
	if blocked {
		return 0, true
	}
	return uint64(wrote), false
}

func (k *Kernel) sysMmap(ctx *syscallCtx) (uint64, bool) {
	p := ctx.proc
	npages := ctx.args[0]
	if npages == 0 || npages > 1<<20 {
		return EINVAL, false
	}
	base := p.mmapNext
	p.mmapNext += (npages + 8) * mem.PageSize
	for i := uint64(0); i < npages; i++ {
		p.lazy[mem.VPN(base)+i] = lazyPage{writable: true}
	}
	// Per-page bookkeeping cost.
	k.C.Charge(40 * npages)
	return base, false
}

func (k *Kernel) sysMunmap(ctx *syscallCtx) (uint64, bool) {
	p := ctx.proc
	base, npages := ctx.args[0], ctx.args[1]
	if base&mem.PageMask != 0 || npages == 0 {
		return EINVAL, false
	}
	k.unmapRange(p, base, int(npages))
	k.C.Charge(60 * npages)
	return 0, false
}

func (k *Kernel) sysYield(ctx *syscallCtx) (uint64, bool) {
	ctx.done = true
	p := ctx.proc
	// State was saved at entry; resume will return 0 from the syscall.
	p.Regs[isa.R0] = 0
	k.enqueue(p)
	k.scheduleNext()
	return 0, false
}

func (k *Kernel) sysFork(ctx *syscallCtx) (uint64, bool) {
	parent := ctx.proc
	child := k.forkProc(parent)
	// Child resumes at the same user PC with R0 = 0.
	child.Regs = parent.Regs
	child.Regs[isa.R0] = 0
	child.UserPC = parent.UserPC
	k.enqueue(child)
	return uint64(child.PID), false
}

// forkProc clones the process's address space (shared physical pages —
// the workloads don't need COW semantics, only the table-copy cost).
func (k *Kernel) forkProc(parent *Proc) *Proc {
	pid := k.nextPID
	k.nextPID++
	child := &Proc{
		PID:      pid,
		Name:     parent.Name + "+fork",
		State:    ProcReady,
		fds:      make(map[int]fileLike),
		lazy:     make(map[uint64]lazyPage),
		nextFD:   parent.nextFD,
		mmapNext: parent.mmapNext,
		FRegs:    parent.FRegs,
		Seccomp:  parent.Seccomp,
	}
	child.KPT = parent.KPT.Clone(k.C.PTs, uint16(pid*2%4096))
	if k.Mit.PTI {
		child.UPT = parent.UPT.Clone(k.C.PTs, uint16((pid*2+1)%4096))
	} else {
		child.UPT = child.KPT
	}
	for vpn, lz := range parent.lazy {
		child.lazy[vpn] = lz
	}
	for fd, f := range parent.fds {
		child.fds[fd] = f.dup()
	}
	child.fpuSaveArea = KernDataBase + mem.PageSize + uint64(pid)*256
	// Table-copy cost proportional to the address-space size.
	k.C.Charge(uint64(parent.KPT.Len()) * 6)
	k.procs[pid] = child
	k.live++
	return child
}

func (k *Kernel) sysThreadSpawn(ctx *syscallCtx) (uint64, bool) {
	parent := ctx.proc
	pid := k.nextPID
	k.nextPID++
	th := &Proc{
		PID:      pid,
		Name:     parent.Name + "+thr",
		State:    ProcReady,
		fds:      parent.fds, // threads share descriptors
		lazy:     parent.lazy,
		nextFD:   parent.nextFD,
		mmapNext: parent.mmapNext,
		KPT:      parent.KPT, // and the address space
		UPT:      parent.UPT,
		Seccomp:  parent.Seccomp,
	}
	th.fpuSaveArea = KernDataBase + mem.PageSize + uint64(pid)*256
	// args[0] = entry PC, args[1] = stack top.
	th.UserPC = ctx.args[0]
	th.Regs[isa.SP] = ctx.args[1]
	k.procs[pid] = th
	k.live++
	k.enqueue(th)
	return uint64(pid), false
}

func (k *Kernel) sysPipe(ctx *syscallCtx) (uint64, bool) {
	p := ctx.proc
	pp := &pipe{readers: 1, writers: 1}
	rfd, wfd := p.nextFD, p.nextFD+1
	p.nextFD += 2
	p.fds[rfd] = &pipeEnd{p: pp, readEnd: true}
	p.fds[wfd] = &pipeEnd{p: pp}
	// Result: rfd in low 32 bits, wfd in high.
	return uint64(rfd) | uint64(wfd)<<32, false
}

func (k *Kernel) sysSend(ctx *syscallCtx) (uint64, bool) {
	// Loopback socket send == pipe write with protocol overhead.
	k.C.Charge(200)
	return k.sysWrite(ctx)
}

func (k *Kernel) sysRecv(ctx *syscallCtx) (uint64, bool) {
	k.C.Charge(200)
	return k.sysRead(ctx)
}

func (k *Kernel) sysSelect(ctx *syscallCtx) (uint64, bool) {
	p := ctx.proc
	nfds := int(ctx.args[0])
	readyCount := 0
	scanned := 0
	for fd, f := range p.fds {
		if fd >= nfds {
			continue
		}
		scanned++
		if f.readReady() {
			readyCount++
		}
	}
	k.C.Charge(uint64(scanned) * 45)
	if readyCount == 0 && ctx.args[1] != 0 {
		// Blocking select: sleep on every pipe read end so a writer
		// wakes us.
		for fd, f := range p.fds {
			if fd >= nfds {
				continue
			}
			if pe, ok := f.(*pipeEnd); ok && pe.readEnd {
				pe.p.addWaiter(p)
			}
		}
		return 0, true
	}
	return uint64(readyCount), false
}

func (k *Kernel) sysPrctl(ctx *syscallCtx) (uint64, bool) {
	p := ctx.proc
	const prSetSpeculationCtrl = 53
	if ctx.args[0] == prSetSpeculationCtrl {
		if !k.C.Model.Spec.SSBDImplemented {
			return ENOSYS, false
		}
		p.SSBDPrctl = ctx.args[1] != 0
		k.applySpecCtrl(p)
		return 0, false
	}
	return EINVAL, false
}

// sysSeccomp enters seccomp mode. args[0], when nonzero, is a bitmask
// of permitted syscall numbers (bit n = syscall n allowed); SysExit is
// always permitted. Violations kill the process. On kernels ≤ 5.15
// entering seccomp also implies SSBD (§4.3).
func (k *Kernel) sysSeccomp(ctx *syscallCtx) (uint64, bool) {
	p := ctx.proc
	p.Seccomp = true
	if ctx.args[0] != 0 {
		p.seccompAllowed = ctx.args[0] | 1<<SysExit
	}
	k.applySpecCtrl(p)
	return 0, false
}

// applySpecCtrl re-evaluates the process's SPEC_CTRL policy immediately.
func (k *Kernel) applySpecCtrl(p *Proc) {
	want := k.userSpecCtrl(p)
	if k.Mit.SpectreV2 == V2EIBRS {
		want |= cpu.SpecCtrlIBRS
	}
	cur := k.C.MSR(cpu.MSRSpecCtrl)
	if cur != want {
		k.C.Charge(k.C.Model.Costs.WrmsrSpecCtrl)
		k.C.SetMSR(cpu.MSRSpecCtrl, want)
	}
	k.C.Phys.Write64(KernDataBase+trampUserSC, want)
}

func (k *Kernel) sysNanosleep(ctx *syscallCtx) (uint64, bool) {
	// Sleeping burns simulated time without blocking the scheduler:
	// the workloads use it as a calibrated delay.
	k.C.Charge(ctx.args[0])
	return 0, false
}

func (k *Kernel) sysOpen(ctx *syscallCtx) (uint64, bool) {
	p := ctx.proc
	// args[0] = file id, args[1] = size hint. No file can outgrow
	// memFileCap, so a larger (or negative) hint is refused with EINVAL.
	hint := ctx.args[1]
	if hint > memFileCap {
		return EINVAL, false
	}
	var f fileLike
	if k.OpenFileProvider != nil {
		ext := k.OpenFileProvider(ctx.args[0], hint)
		if ext == nil {
			return EBADF, false
		}
		f = &extFile{f: ext}
	} else {
		f = &memFile{size: int(hint)}
	}
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = f
	return uint64(fd), false
}

// sysSignal registers a user-mode fault handler (args[0] = handler PC;
// 0 unregisters).
func (k *Kernel) sysSignal(ctx *syscallCtx) (uint64, bool) {
	ctx.proc.sigHandler = ctx.args[0]
	return 0, false
}

func (k *Kernel) sysClose(ctx *syscallCtx) (uint64, bool) {
	p := ctx.proc
	fd := int(ctx.args[0])
	f, ok := p.fds[fd]
	if !ok {
		return EBADF, false
	}
	f.close(k)
	delete(p.fds, fd)
	return 0, false
}
