// Package cpu implements the simulated processor core: an interpreter
// for the isa package with explicit modelling of the microarchitectural
// state that transient-execution attacks exploit — speculative execution
// windows, caches, TLBs, branch predictors, store and fill buffers — and
// cycle accounting calibrated per CPU model.
//
// The core deliberately separates architectural effects (registers,
// memory, privilege mode) from microarchitectural effects (cache fills,
// buffer contents, performance counters). Transient execution mutates
// only the latter, which is exactly what makes the attacks in
// internal/attacks observable and their mitigations testable.
package cpu

import (
	"fmt"
	"sort"
	"sync/atomic"

	"spectrebench/internal/branch"
	"spectrebench/internal/buffers"
	"spectrebench/internal/cache"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
	"spectrebench/internal/model"
	"spectrebench/internal/pmc"
	"spectrebench/internal/simscope"
	"spectrebench/internal/tlb"
)

// Priv is the current privilege level.
type Priv uint8

// Privilege levels.
const (
	PrivUser Priv = iota
	PrivKernel
)

func (p Priv) String() string {
	if p == PrivUser {
		return "user"
	}
	return "kernel"
}

// Architectural MSR numbers used by the simulator.
const (
	MSRSpecCtrl  = 0x48       // IA32_SPEC_CTRL: bit 0 IBRS, bit 2 SSBD
	MSRPredCmd   = 0x49       // IA32_PRED_CMD: bit 0 IBPB
	MSRArchCaps  = 0x10a      // IA32_ARCH_CAPABILITIES (read-only)
	MSRLStar     = 0xc0000082 // syscall entry point
	MSRGSBase    = 0xc0000101
	MSRKernelGS  = 0xc0000102
	MSRTSCAux    = 0xc0000103
	MSRTrapEntry = 0xc0000200 // simulator-specific: trap entry point (0 ⇒ Go hook only)
)

// SPEC_CTRL bits.
const (
	SpecCtrlIBRS  = 1 << 0
	SpecCtrlSTIBP = 1 << 1
	SpecCtrlSSBD  = 1 << 2
)

// ArchCaps bits (subset).
const (
	ArchCapRDCLNoMeltdown = 1 << 0 // not vulnerable to Meltdown
	ArchCapIBRSAll        = 1 << 1 // enhanced IBRS supported
	ArchCapMDSNo          = 1 << 5 // not vulnerable to MDS
	ArchCapSSBNo          = 1 << 4 // not vulnerable to SSB (reserved; never set — §4.3)
)

// FaultKind classifies an architectural exception.
type FaultKind int

// Exception kinds.
const (
	FaultNone FaultKind = iota
	FaultPage
	FaultFPUDisabled // #NM: FPU touched while disabled (lazy FPU)
	FaultInvalidOp   // #UD
	FaultDivide      // #DE
	FaultGP          // privileged op in user mode
	FaultAlign       // #AC-style: an 8-byte access crossing a page boundary
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultPage:
		return "page-fault"
	case FaultFPUDisabled:
		return "fpu-disabled"
	case FaultInvalidOp:
		return "invalid-opcode"
	case FaultDivide:
		return "divide-error"
	case FaultGP:
		return "general-protection"
	case FaultAlign:
		return "alignment-check"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault describes an architectural exception being delivered.
type Fault struct {
	Kind   FaultKind
	VA     uint64     // faulting address for page faults
	Access mem.Access // access type for page faults
	PC     uint64     // faulting instruction
}

func (f Fault) Error() string {
	return fmt.Sprintf("%v at pc=%#x va=%#x", f.Kind, f.PC, f.VA)
}

// TrapAction tells the core how to continue after the trap hook ran.
type TrapAction int

// Trap hook outcomes.
const (
	TrapRetry   TrapAction = iota // re-execute the faulting instruction
	TrapSkip                      // skip the faulting instruction
	TrapKill                      // terminate execution with an error
	TrapContext                   // the hook installed a new execution context (PC, priv, CR3); resume as-is
)

// VMExitReason describes why a guest exited to the hypervisor.
type VMExitReason struct {
	Op   isa.Op // VMCALL, OUT, or IN
	Port int64  // for OUT/IN
	Val  uint64 // for OUT: the value written
}

// Core is one logical CPU.
type Core struct {
	Model *model.CPU

	// Architectural state.
	Regs   [isa.NumRegs]uint64
	FRegs  [isa.NumFRegs]float64
	FlagEQ bool
	FlagLT bool
	PC     uint64
	Priv   Priv
	CR3    uint64
	// FPUEnabled models CR0.TS: when false, FPU instructions trap (#NM).
	FPUEnabled bool
	// SavedUserPC is where SYSRET returns to (x86 keeps it in RCX).
	SavedUserPC uint64
	// GSSwapped tracks swapgs state (entry stubs must balance it).
	GSSwapped bool
	msrs      map[uint32]uint64

	// Guest virtualisation state.
	Guest  bool
	Nested *mem.NestedTable

	// Platform.
	Phys *mem.Phys
	PTs  *mem.Registry

	// Microarchitectural state. L1 heads the cache hierarchy. FB may be
	// shared with an SMT sibling (the MDS cross-thread channel).
	L1   *cache.Cache
	TLB  *tlb.TLB
	BTB  *branch.BTB
	RSB  *branch.RSB
	Cond *branch.CondPredictor
	BHB  *branch.BHB
	SB   *buffers.StoreBuffer
	FB   *buffers.FillBuffer
	PMC  *pmc.Counters

	// Accounting.
	Cycles  uint64
	Instret uint64

	// FI, when non-nil, is consulted at the core's fault-injection
	// points (spurious evictions, TLB glitches, drain delays, timing
	// jitter). cpu.New attaches one automatically when the current
	// scope carries a faultinject activation; nil means no injection.
	FI *faultinject.Injector

	// CycleBudget, when nonzero, is the watchdog limit: Step returns an
	// error wrapping ErrCycleBudget once Cycles exceeds it, so runaway
	// experiments abort instead of hanging their caller. New cores copy
	// the current scope's budget.
	CycleBudget uint64

	// interrupted is the Core.Interrupt flag (async abort hook).
	interrupted atomic.Bool

	// scope is the simulation scope current when the core was
	// constructed (nil outside managed runs). Cycle telemetry flushes
	// into it so per-cell cost attribution stays exact even when many
	// cells simulate concurrently.
	scope *simscope.Scope

	// flushedCycles tracks how much of Cycles has been published to the
	// scope's cycle accumulator.
	flushedCycles uint64

	// Hooks installed by the kernel / hypervisor / harness.
	// OnSyscall runs after the SYSCALL instruction switched to kernel
	// mode, if MSRLStar is zero (pure-Go kernels); with a nonzero
	// LSTAR the core instead jumps to the entry stub.
	OnSyscall func(c *Core)
	// OnTrap handles architectural exceptions.
	OnTrap func(c *Core, f Fault) TrapAction
	// OnVMExit handles guest exits. Runs in host context.
	OnVMExit func(c *Core, r VMExitReason) uint64

	// SpecEnabled globally gates transient execution (a hypothetical
	// "no speculation" machine used as an ablation baseline).
	SpecEnabled bool

	// NoPCID disables process-context-ID tagging: every CR3 write
	// flushes non-global TLB entries, the pre-PCID behaviour that made
	// PTI dramatically more expensive (§5.1 ablation).
	NoPCID bool

	// FusedCmovGuards models the paper's §7 hardware proposal: the
	// JIT's cmov-before-load mitigation pattern is recognised and fused
	// by the front end, making Spectre V1 masking (and the analogous
	// object guards) architecturally free while keeping their
	// speculative clamping effect. No shipping CPU implements this;
	// the what-if experiment quantifies the §7 prediction.
	FusedCmovGuards bool

	// OnRetire, when set, observes every retired instruction (a
	// debugging/trace hook; it must not mutate state). It does not see
	// transient execution — like a real trace unit, only committed
	// instructions appear.
	OnRetire func(pc uint64, in *isa.Instruction)

	// Thunks maps "magic" code addresses to host-Go handlers. When fetch
	// reaches a registered address, the handler runs instead of decoding
	// an instruction; it must set PC (or halt) before returning. Kernel
	// syscall dispatch and JIT runtime helpers use this to jump from
	// simulated code into Go. Install handlers with RegisterThunk, not by
	// writing the map directly: registration maintains the cached
	// has-thunks flag and invalidates decoded blocks spanning the address.
	Thunks map[uint64]func(*Core)

	// Reference modes, set only by this package's differential tests;
	// every core the simulator builds leaves them false. refStep makes
	// StepBlock degrade to per-instruction Step (no decoded blocks);
	// noChain keeps the block cache but returns to the dispatch loop at
	// every block exit instead of chaining into the successor
	// (superblocks); noXlate bypasses the last-translation and
	// page-table pointer caches (see xlate.go).
	refStep bool
	noChain bool
	noXlate bool

	// xcFetch/xcData are the per-stream last-translation caches (fetch
	// and data accesses age independently — a data access to a new page
	// must not evict the hot fetch translation). lastPT caches the CR3
	// root → page-table resolution; registry bindings are immutable, so
	// it can only go stale when PTs itself is replaced (pool reinit).
	xcFetch    xlateCache
	xcData     xlateCache
	lastPTRoot uint64
	lastPT     *mem.PageTable

	// code is fetch-path bookkeeping shared between SMT siblings, which
	// see the same Thunks map and start from the same loaded programs.
	code *codeState

	// blocks caches decoded basic blocks keyed by entry PC, valid for
	// code generation blocksGen only. Per-logical-core (blocks hold
	// *isa.Instruction pointers into this core's programs slice).
	// lastBlock/prevBlock memoise the two previous blockFor resolutions
	// (cleared whenever blocks is).
	blocks      map[uint64]*block
	blocksGen   uint64
	lastBlock   *block
	lastBlockPC uint64
	prevBlock   *block
	prevBlockPC uint64

	// pendCycles/pendInstret are StepBlock's unpublished charge and
	// instruction-count accumulators; zero whenever StepBlock is not
	// executing (see syncPending).
	pendCycles  uint64
	pendInstret uint64

	programs []*isa.Program // sorted by Base

	kernelEntries uint64      // for the eIBRS bimodal behaviour
	pendingLeak   pendingLeak // faulting-load leak context for the executor
	lastLoadRet   uint64      // Instret of the most recent load (lfence cost model)
	lastStoreRet  uint64      // Instret of the most recent store (SSBD stall model)
	ssbSeen       map[uint64]uint8
	inTransient   bool
	spec          txn // the transient window's shadow context, reused per window
	halted        bool

	// noPool excludes this core from the recycle pool: SMT siblings
	// share microarchitectural structures, so recycling either half
	// would alias them across cells.
	noPool bool

	// poolGen counts checkouts from the core pool. Each recycle path
	// (explicit Recycle, scope release) holds the generation it was
	// armed with and advances it by compare-and-swap, so a core is
	// returned to the pool exactly once per checkout.
	poolGen atomic.Uint64
}

// New constructs a core for the given CPU model with its own memory
// system and predictor state. The geometry-sized structures come from a
// per-uarch recycle pool when it has a core to spare, and the core is
// returned to it when the current simulation scope is released.
func New(m *model.CPU) *Core {
	sc := simscope.Current()
	c := checkoutPooled(m, sc)
	if c == nil {
		c = construct(m, sc)
	}
	retainOnScope(c, sc)
	return c
}

// construct builds a core from scratch, bypassing the pool.
func construct(m *model.CPU, sc *simscope.Scope) *Core {
	c := &Core{
		Model:       m,
		Phys:        mem.NewPhys(),
		PTs:         mem.NewRegistry(),
		TLB:         tlb.New(64, 8),
		RSB:         branch.NewRSB(m.RSBDepth),
		Cond:        branch.NewCondPredictor(12),
		BHB:         &branch.BHB{},
		SB:          buffers.NewStoreBuffer(42, 8),
		FB:          buffers.NewFillBuffer(12),
		PMC:         pmc.New(),
		FPUEnabled:  true,
		SpecEnabled: true,
		msrs:        make(map[uint32]uint64),
		Thunks:      make(map[uint64]func(*Core)),
		code:        &codeState{},
		FI:          faultinject.FromActiveScope(sc, m.Uarch),
		scope:       sc,
	}
	c.CycleBudget = scopeCycleBudget(c.scope)
	c.L1 = cache.New(m.Costs.Mem,
		cache.Config{Name: "L1d", SizeBytes: 32 << 10, Ways: 8, HitLatency: m.Costs.CacheL1},
		cache.Config{Name: "L2", SizeBytes: 512 << 10, Ways: 8, HitLatency: m.Costs.CacheL2 - m.Costs.CacheL1},
		cache.Config{Name: "LLC", SizeBytes: 8 << 20, Ways: 16, HitLatency: m.Costs.CacheLLC - m.Costs.CacheL2},
	)
	c.BTB = branch.NewBTB(branch.BTBConfig{
		Sets: 1024, Ways: 4,
		TagMode:      m.Spec.EIBRS,
		HistoryDepth: m.Spec.BTBHistoryDepth,
	})
	c.msrs[MSRArchCaps] = archCaps(m)
	return c
}

// NewSMTSibling returns a second logical CPU sharing the physical core's
// memory system, caches, fill buffers and predictors with c — the
// configuration MDS attacks exploit cross-thread. Both halves of the
// pair are excluded from the core pool: the shared structures would
// otherwise be recycled twice.
func NewSMTSibling(c *Core) *Core {
	s := &Core{
		Model:       c.Model,
		Phys:        c.Phys,
		PTs:         c.PTs,
		L1:          c.L1,
		TLB:         c.TLB,
		BTB:         c.BTB,
		RSB:         branch.NewRSB(c.Model.RSBDepth), // RSBs are per-thread
		Cond:        c.Cond,
		BHB:         &branch.BHB{},
		SB:          buffers.NewStoreBuffer(42, 8), // store buffer is statically partitioned
		FB:          c.FB,                          // fill buffers are shared: the MDS channel
		PMC:         pmc.New(),
		FPUEnabled:  true,
		SpecEnabled: true,
		msrs:        make(map[uint32]uint64),
		Thunks:      c.Thunks,
		refStep:     c.refStep,
		noChain:     c.noChain,
		noXlate:     c.noXlate,
		code:        c.code, // shared: thunk installs invalidate both threads
		programs:    c.programs,
		FI:          c.FI, // siblings share the physical core's weather
		CycleBudget: c.CycleBudget,
		scope:       c.scope,
	}
	s.msrs[MSRArchCaps] = archCaps(c.Model)
	c.noPool = true
	s.noPool = true
	// Sibling creation is a code-visibility event: the sibling starts
	// from c's programs slice, but the two cores append to their own
	// copies afterwards. Invalidate conservatively so neither thread
	// replays a block decoded under the pre-fork view.
	c.code.gen++
	return s
}

func archCaps(m *model.CPU) uint64 {
	var v uint64
	if !m.Vulns.Meltdown {
		v |= ArchCapRDCLNoMeltdown
	}
	if m.Spec.EIBRS {
		v |= ArchCapIBRSAll
	}
	if !m.Vulns.MDS {
		v |= ArchCapMDSNo
	}
	// ArchCapSSBNo is never set: the paper notes no shipping CPU from
	// either vendor reports it (§4.3).
	return v
}

// LoadProgram makes a program fetchable. The caller is responsible for
// mapping its address range in the relevant page tables.
func (c *Core) LoadProgram(p *isa.Program) {
	// Any load may change what an already-decoded block would fetch
	// (replacement is the JIT recompilation path; an append can populate
	// a previously unfetchable range), so retire every decoded block.
	c.code.gen++
	// Replace any program previously loaded at the same base (JIT
	// recompilation path).
	for i, q := range c.programs {
		if q.Base == p.Base {
			c.programs[i] = p
			return
		}
	}
	c.programs = append(c.programs, p)
	sort.Slice(c.programs, func(i, j int) bool { return c.programs[i].Base < c.programs[j].Base })
}

// RegisterThunk installs a host-Go handler at a magic code address. All
// thunk installation must go through here rather than writing Thunks
// directly: registration maintains the cached has-thunks flag that lets
// thunk-free cores (guest user-mode cores) skip the per-step map probe,
// and it invalidates decoded blocks that would otherwise run straight
// through the newly trapped address.
func (c *Core) RegisterThunk(pc uint64, fn func(*Core)) {
	c.Thunks[pc] = fn
	c.code.hasThunks = true
	c.code.gen++
}

// findInstruction locates the instruction at va, or nil.
func (c *Core) findInstruction(va uint64) *isa.Instruction {
	i := sort.Search(len(c.programs), func(i int) bool { return c.programs[i].Base > va })
	if i == 0 {
		return nil
	}
	return c.programs[i-1].At(va)
}

// findProgram locates the loaded program containing va, or nil.
func (c *Core) findProgram(va uint64) *isa.Program {
	i := sort.Search(len(c.programs), func(i int) bool { return c.programs[i].Base > va })
	if i == 0 {
		return nil
	}
	if p := c.programs[i-1]; p.At(va) != nil {
		return p
	}
	return nil
}

// MSR returns the current value of an MSR.
func (c *Core) MSR(idx uint32) uint64 { return c.msrs[idx] }

// SetMSR sets an MSR directly (boot-time configuration; no cycle cost).
func (c *Core) SetMSR(idx uint32, v uint64) { c.writeMSR(idx, v) }

// IBRSActive reports whether SPEC_CTRL.IBRS is set.
func (c *Core) IBRSActive() bool { return c.msrs[MSRSpecCtrl]&SpecCtrlIBRS != 0 }

// SSBDActive reports whether SPEC_CTRL.SSBD is set (store bypass
// disabled for the current context).
func (c *Core) SSBDActive() bool { return c.msrs[MSRSpecCtrl]&SpecCtrlSSBD != 0 }

// writeMSR applies MSR side effects.
func (c *Core) writeMSR(idx uint32, v uint64) {
	switch idx {
	case MSRPredCmd:
		if v&1 != 0 { // IBPB
			c.BTB.FlushAll()
		}
		return // write-only command register
	case MSRArchCaps:
		return // read-only
	}
	c.msrs[idx] = v
}

// Halted reports whether the core executed HLT.
func (c *Core) Halted() bool { return c.halted }

// ClearHalt allows re-running after a HLT.
func (c *Core) ClearHalt() { c.halted = false }

// PageTable returns the active page table (resolving CR3), or nil.
// Registry bindings are immutable — tables are only ever added, and a
// root resolves to the same *PageTable for the registry's lifetime — so
// the resolution is cached per core on the fast path. (Table contents
// mutate in place behind the same pointer; that is invisible here.)
func (c *Core) PageTable() *mem.PageTable {
	root := mem.CR3Root(c.CR3)
	if !c.noXlate {
		if c.lastPT != nil && c.lastPTRoot == root {
			return c.lastPT
		}
		if pt := c.PTs.Lookup(root); pt != nil {
			c.lastPTRoot, c.lastPT = root, pt
			return pt
		}
		return nil
	}
	return c.PTs.Lookup(root)
}

// SetPageTable points CR3 at pt without charging the mov-cr3 cost
// (boot-time configuration).
func (c *Core) SetPageTable(pt *mem.PageTable) { c.CR3 = mem.CR3(pt) }

// charge adds cycles to the core's clock and cycle counter.
func (c *Core) charge(n uint64) {
	c.Cycles += n
	c.PMC.Add(pmc.Cycles, n)
}

// Charge adds cycles on behalf of work performed by host-Go components
// (kernel syscall semantics, hypervisor device emulation). It keeps the
// core's clock authoritative for all time accounting.
func (c *Core) Charge(n uint64) { c.charge(n) }

// Reset clears volatile execution state but keeps loaded programs,
// memory contents and configuration. That includes the faulting-load
// leak context and the eIBRS kernel-entry count: a reused core must not
// carry Meltdown-family leak state or bimodal-predictor history from a
// previous experiment into the next.
func (c *Core) Reset() {
	c.Regs = [isa.NumRegs]uint64{}
	c.FRegs = [isa.NumFRegs]float64{}
	c.FlagEQ, c.FlagLT = false, false
	c.halted = false
	c.GSSwapped = false
	c.pendingLeak = pendingLeak{}
	c.kernelEntries = 0
	c.clearDecodedBlocks()
}

// clearDecodedBlocks drops the decoded-block cache, the dispatch memo
// and every superblock chain link hanging off the cached blocks. Reset,
// pool reinit and recycle all route through here: a recycled or reset
// core must never replay a chain formed over a previous owner's code.
func (c *Core) clearDecodedBlocks() {
	clear(c.blocks)
	c.blocksGen = 0
	c.lastBlock, c.lastBlockPC = nil, 0
	c.prevBlock, c.prevBlockPC = nil, 0
}
