// Package lfs implements the LFS smallfile and largefile benchmarks
// (Rosenblum & Ousterhout) the paper runs inside a virtual machine
// against an emulated disk (§4.4): the guest kernel serves file syscalls
// from a log-structured filesystem whose block I/O exits to the host.
package lfs

import (
	"fmt"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/fs"
	"spectrebench/internal/isa"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/vmm"
)

// Benchmark names.
const (
	Smallfile = "smallfile"
	Largefile = "largefile"
)

// hvDevice adapts the hypervisor's paravirtual block path to the fs
// device interface; every block transfer is a VM exit.
type hvDevice struct {
	hv *vmm.Hypervisor
}

func (d hvDevice) Read(n int, buf []byte) error  { return d.hv.HostBlockIO(n, buf, false) }
func (d hvDevice) Write(n int, buf []byte) error { return d.hv.HostBlockIO(n, buf, true) }
func (d hvDevice) Blocks() int                   { return d.hv.Disk().Blocks() }

// Result is one benchmark run's outcome.
type Result struct {
	Cycles  float64
	VMExits uint64
}

// Run executes one LFS benchmark inside a guest VM, returning cycles
// and exit counts. hostMit controls the host's VM-boundary mitigations.
func Run(m *model.CPU, hostMit, guestMit kernel.Mitigations, name string) (*Result, error) {
	hv := vmm.New(m, hostMit, guestMit, 4096)
	defer hv.Close()
	hv.Boot()
	k := hv.GuestKernel

	volume, err := fs.Format(hvDevice{hv})
	if err != nil {
		return nil, err
	}
	// Guest kernel file provider: file ids map to LFS files.
	k.OpenFileProvider = func(id, _ uint64) kernel.ExternalFile {
		fname := fmt.Sprintf("f%d", id)
		if fl, err := volume.Open(fname); err == nil {
			return fl
		}
		fl, err := volume.Create(fname)
		if err != nil {
			return nil
		}
		return fl
	}

	prog, err := benchProgram(name)
	if err != nil {
		return nil, err
	}
	hv.NewGuestProcess("lfs-"+name, prog)
	start := hv.C.Cycles
	if err := k.RunProcessToCompletion(120_000_000); err != nil {
		return nil, err
	}
	return &Result{Cycles: float64(hv.C.Cycles - start), VMExits: hv.Exits}, nil
}

func emitSyscall(a *isa.Asm, nr int64) {
	a.MovI(isa.R7, nr)
	a.Syscall()
}

// assembled carries a guest program (or its deterministic assembly
// failure) through the checkpoint registry.
type assembled struct {
	prog *isa.Program
	err  error
}

// benchProgram assembles the guest program for the named benchmark,
// reusing the checkpointed assembly across runs — the emitted code
// depends only on the name, and the program is immutable once built.
// Only the host-side assembly is checkpointed; the VM itself (disk
// format traffic included) always runs cold, because formatting charges
// guest cycles and VM exits that appear in the measured output.
func benchProgram(name string) (*isa.Program, error) {
	v := checkpoint.Get("lfs/prog|"+name, func() any {
		prog, err := buildProgram(name)
		return &assembled{prog: prog, err: err}
	})
	asm := v.(*assembled)
	return asm.prog, asm.err
}

// buildProgram emits the guest user program for the benchmark.
func buildProgram(name string) (*isa.Program, error) {
	a := isa.NewAsm()
	switch name {
	case Smallfile:
		// 12 files: create, write 4 KiB, close (sync), reopen, read.
		const files = 12
		a.MovI(isa.R9, 0)
		a.Label("file_loop")
		// open(id)
		a.Mov(isa.R1, isa.R9)
		a.MovI(isa.R2, 0)
		emitSyscall(a, kernel.SysOpen)
		a.Mov(isa.R8, isa.R0) // fd
		// write 4 KiB
		a.Mov(isa.R1, isa.R8)
		a.MovI(isa.R2, kernel.UserDataBase)
		a.MovI(isa.R3, 4096)
		emitSyscall(a, kernel.SysWrite)
		// close → sync → block I/O → VM exits
		a.Mov(isa.R1, isa.R8)
		emitSyscall(a, kernel.SysClose)
		// reopen + read back
		a.Mov(isa.R1, isa.R9)
		a.MovI(isa.R2, 0)
		emitSyscall(a, kernel.SysOpen)
		a.Mov(isa.R8, isa.R0)
		a.Mov(isa.R1, isa.R8)
		a.MovI(isa.R2, kernel.UserDataBase+0x2000)
		a.MovI(isa.R3, 4096)
		emitSyscall(a, kernel.SysRead)
		a.Mov(isa.R1, isa.R8)
		emitSyscall(a, kernel.SysClose)
		a.AddI(isa.R9, 1)
		a.CmpI(isa.R9, files)
		a.Jne("file_loop")

	case Largefile:
		// One 256 KiB file written in 4 KiB chunks, synced, re-read.
		const chunks = 64
		a.MovI(isa.R1, 1000)
		a.MovI(isa.R2, 0)
		emitSyscall(a, kernel.SysOpen)
		a.Mov(isa.R8, isa.R0)
		a.MovI(isa.R9, 0)
		a.Label("wchunk")
		a.Mov(isa.R1, isa.R8)
		a.MovI(isa.R2, kernel.UserDataBase)
		a.MovI(isa.R3, 4096)
		emitSyscall(a, kernel.SysWrite)
		a.AddI(isa.R9, 1)
		a.CmpI(isa.R9, chunks)
		a.Jne("wchunk")
		a.Mov(isa.R1, isa.R8)
		emitSyscall(a, kernel.SysClose) // sync: the big log append
		// Reopen and read back sequentially.
		a.MovI(isa.R1, 1000)
		a.MovI(isa.R2, 0)
		emitSyscall(a, kernel.SysOpen)
		a.Mov(isa.R8, isa.R0)
		a.MovI(isa.R9, 0)
		a.Label("rchunk")
		a.Mov(isa.R1, isa.R8)
		a.MovI(isa.R2, kernel.UserDataBase+0x2000)
		a.MovI(isa.R3, 4096)
		emitSyscall(a, kernel.SysRead)
		a.AddI(isa.R9, 1)
		a.CmpI(isa.R9, chunks)
		a.Jne("rchunk")
		a.Mov(isa.R1, isa.R8)
		emitSyscall(a, kernel.SysClose)

	default:
		return nil, fmt.Errorf("lfs: unknown benchmark %q", name)
	}
	a.MovI(isa.R1, 0)
	emitSyscall(a, kernel.SysExit)
	return a.Assemble(kernel.UserCodeBase)
}

// HostMitigationOverhead measures §4.4's question for one benchmark:
// how much do the host's mitigations slow the guest down?
func HostMitigationOverhead(m *model.CPU, name string) (float64, error) {
	guestMit := kernel.Defaults(m)
	off := kernel.BootParams{MitigationsOff: true}.Apply(m, kernel.Defaults(m))
	base, err := Run(m, off, guestMit, name)
	if err != nil {
		return 0, err
	}
	with, err := Run(m, kernel.Defaults(m), guestMit, name)
	if err != nil {
		return 0, err
	}
	return (with.Cycles - base.Cycles) / base.Cycles, nil
}
