// Decoded basic-block cache: the fast path of the interpreter.
//
// Step pays a fixed per-instruction tax that has nothing to do with the
// instruction itself: a fetch-side TLB set walk, a binary search over
// loaded programs, a thunk-map probe, and per-instruction charge/PMC
// bookkeeping. StepBlock amortises that tax over straight-line runs. On
// first execution a run is decoded once into a block of pre-resolved
// *isa.Instruction pointers; replay then dispatches simple ALU ops
// inline, accumulating their cycle and instruction counts and publishing
// them in batches, while every op with microarchitectural side effects
// (memory, branches, system ops — anything that can open a transient
// window, consult the fault injector, or trap) still routes through the
// reference execute switch unchanged.
//
// Block boundaries. A block is a maximal straight-line run that stays
// inside one program, one page, and one fetch context. It ends at (and
// includes) the first isa.IsBlockEnd instruction — any control transfer
// plus every serializing or privilege-sensitive op (SYSCALL/SYSRET/IRET,
// MOVCR3, WRMSR, HLT, ...) — and ends before a page boundary, a
// registered thunk address, the end of the program, or maxBlockLen.
// Because everything that can change the fetch context (privilege,
// CR3/PCID, MSRs, loaded code) is itself a block terminator or runs in
// host code outside block replay, the context validated at dispatch is
// stable for the whole block.
//
// Exactness. StepBlock must be indistinguishable from per-instruction
// Step (the reference the differential tests hold it to), for every
// -jobs value, with and without -faults. That dictates the two things
// the fast path does NOT batch:
//
//   - The fetch TLB probe stays per-instruction (via a pinned tlb.SetRef
//     with Lookup's exact scan order and LRU/hit/miss bookkeeping):
//     fetch hits advance the TLB's LRU clock, and batching them would
//     change eviction order against interleaved data accesses — and the
//     per-hit faultinject.TLBGlitch consultation draws from the
//     injector's PRNG stream, whose order is the determinism contract.
//   - Accumulated cycles are published before every reference-path
//     execute call, telemetry flush, hook and trap delivery: a load can
//     open a speculative window whose transient RDTSC reads c.Cycles, so
//     the architectural clock must be current at every such boundary.
//
// Invalidation. Blocks hold instruction pointers into the core's
// programs slice, so they die with the code view: codeState.gen is
// bumped by LoadProgram (the JIT recompilation path), RegisterThunk, and
// SMT sibling creation, and the per-core cache is discarded wholesale at
// the next dispatch. CR3 swaps (PTI), privilege changes, SpecEnabled/MSR
// writes and TLB flushes — including fault-injected TLBGlitch drops —
// need no invalidation at all: the fetch context is revalidated on every
// dispatch, the TLB is consulted per instruction, and every cost that
// such state can alter is either read live (cmov fusing at dispatch is
// host-configured setup state) or charged on the reference path.
package cpu

import (
	"spectrebench/internal/faultinject"
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
	"spectrebench/internal/pmc"
)

// maxBlockLen caps decoded block length: long enough to swallow the
// unrolled bodies the workloads run, short enough that a block never
// outruns its 4 KiB page (1024 instructions).
const maxBlockLen = 64

// codeState is the fetch-path bookkeeping shared between SMT siblings.
type codeState struct {
	// hasThunks gates the per-step thunk probe: cores with no
	// registered thunks (guest user-mode cores) skip the map lookup on
	// every step. Maintained by RegisterThunk — which is why direct
	// Thunks writes are not allowed.
	hasThunks bool
	// gen is the code generation. It is bumped whenever the mapping
	// from code addresses to behaviour may have changed — LoadProgram,
	// RegisterThunk, SMT sibling creation — and decoded blocks built
	// under an older generation are discarded at the next dispatch.
	gen uint64
}

// block is one decoded straight-line run. It stores only instruction
// pointers (into the owning program's Code array); op class and costs
// are read live at replay so blocks never cache anything a config change
// could invalidate.
type block struct {
	pc  uint64 // entry address
	vpn uint64 // the single page all instructions fetch from
	ins []*isa.Instruction

	// chainPC/chainTo memoise the last resolved exit edge (superblock
	// chaining): a branch out of this block whose target resolved to
	// chainPC links straight to the decoded successor, skipping the
	// dispatch memo and map probe on stable edges (loop back-edges,
	// unconditional jumps). The link can only name a block of the same
	// code generation — blocks are discarded wholesale on a generation
	// bump, taking every chain link with them — and Reset/pool reinit
	// clear the cache outright (clearDecodedBlocks), so a recycled core
	// can never replay a stale chain.
	chainPC uint64
	chainTo *block
}

// chainNext resolves the successor block for a chained exit from b at
// pc, memoising the edge on b. A nil return (thunk-trapped or
// unfetchable successor) means the caller must return to its dispatch
// loop, which handles thunks and the reference path.
func (c *Core) chainNext(b *block, pc uint64) *block {
	if b.chainTo != nil && b.chainPC == pc {
		return b.chainTo
	}
	nb := c.blockFor(pc)
	if nb != nil {
		b.chainPC, b.chainTo = pc, nb
	}
	return nb
}

// blockFor returns the decoded block headed at pc, building and caching
// it on first use. A nil return means pc cannot head a block (no decoded
// instruction there, or a thunk traps the address) and the caller must
// take the reference path; nil is cached too, since that fact can only
// change with a generation bump.
func (c *Core) blockFor(pc uint64) *block {
	if c.blocks == nil || c.blocksGen != c.code.gen {
		if c.blocks == nil {
			c.blocks = make(map[uint64]*block, 64)
		} else {
			clear(c.blocks)
		}
		c.blocksGen = c.code.gen
		c.lastBlock, c.prevBlock = nil, nil
	}
	// Two-entry dispatch memo: a hot loop re-dispatches the same one or
	// two entry PCs every iteration (the loop body, plus the block after
	// a conditional branch), so remembering the previous resolutions
	// skips the map probe. The rebuild branch above clears the memo on
	// every generation bump, so it can never outlive the blocks it
	// points into.
	if c.lastBlock != nil && c.lastBlockPC == pc {
		return c.lastBlock
	}
	if c.prevBlock != nil && c.prevBlockPC == pc {
		c.lastBlock, c.prevBlock = c.prevBlock, c.lastBlock
		c.lastBlockPC, c.prevBlockPC = c.prevBlockPC, c.lastBlockPC
		return c.lastBlock
	}
	b, ok := c.blocks[pc]
	if !ok {
		b = c.buildBlock(pc)
		c.blocks[pc] = b
	}
	if b != nil {
		c.prevBlock, c.prevBlockPC = c.lastBlock, c.lastBlockPC
		c.lastBlock, c.lastBlockPC = b, pc
	}
	return b
}

// buildBlock decodes the straight-line run headed at pc.
func (c *Core) buildBlock(pc uint64) *block {
	if _, ok := c.Thunks[pc]; ok {
		return nil
	}
	p := c.findProgram(pc)
	if p == nil {
		return nil
	}
	b := &block{pc: pc, vpn: mem.VPN(pc)}
	for va := pc; ; va += isa.InstrBytes {
		if va != pc {
			if mem.VPN(va) != b.vpn {
				break
			}
			if _, ok := c.Thunks[va]; ok {
				break
			}
		}
		in := p.At(va)
		if in == nil {
			break
		}
		b.ins = append(b.ins, in)
		if in.Op.IsBlockEnd() || len(b.ins) >= maxBlockLen {
			break
		}
	}
	if len(b.ins) == 0 {
		return nil
	}
	return b
}

// syncPending publishes the fast path's accumulated cycle and
// instruction counts into the architectural counters. It must run (and
// does) before anything that can observe them: every reference-path
// execute call (a load may open a transient window whose RDTSC reads
// c.Cycles), telemetry flushes, trap delivery, hooks, and StepBlock
// return. Outside StepBlock both accumulators are always zero.
func (c *Core) syncPending() {
	if c.pendCycles != 0 {
		c.Cycles += c.pendCycles
		c.PMC.Add(pmc.Cycles, c.pendCycles)
		c.pendCycles = 0
	}
	if c.pendInstret != 0 {
		c.PMC.Add(pmc.Instructions, c.pendInstret)
		c.pendInstret = 0
	}
}

// StepBlock executes up to limit architectural instructions through the
// decoded-block fast path. It behaves exactly like calling Step up to
// limit times, stopping after any step that ran a thunk, delivered a
// trap, retired a block-ending instruction, or returned an error. It
// returns the number of Step-equivalents consumed (at least 1) and the
// error, if any, from the last of them — so `n, err := c.StepBlock(k)`
// advances the machine precisely as some `for i := 0; i < n; i++ {
// err = c.Step() }` would have.
func (c *Core) StepBlock(limit int) (int, error) {
	if limit <= 0 {
		return 0, nil
	}
	if c.refStep {
		return 1, c.Step()
	}

	// First-step preamble, in exactly Step's order.
	if c.halted {
		return 1, ErrHalted
	}
	if c.CycleBudget != 0 && c.Cycles >= c.CycleBudget {
		c.flushCycleTelemetry()
		return 1, c.budgetErr()
	}
	if c.interrupted.Load() {
		c.interrupted.Store(false)
		c.flushCycleTelemetry()
		return 1, c.interruptedErr()
	}
	if c.Instret&0xfff == 0 && c.Instret != 0 {
		c.flushCycleTelemetry()
	}
	if c.code.hasThunks {
		if fn, ok := c.Thunks[c.PC]; ok {
			fn(c)
			return 1, nil
		}
	}

	b := c.blockFor(c.PC)
	if b == nil {
		// Unfetchable or thunk-trapped address: reference path. (The
		// repeated preamble inside Step is idempotent here.)
		return 1, c.Step()
	}
	// Fetch context, validated once per dispatch. Everything that can
	// change it — privilege transitions, MOVCR3, traps, thunks — ends a
	// block, so it is stable until we return; superblock chaining only
	// follows exits that provably leave it intact (plain control
	// transfers), so it stays valid across chained blocks too.
	pt := c.PageTable()
	if pt == nil {
		return 1, c.Step()
	}
	user := c.Priv == PrivUser
	pcid := mem.CR3PCID(c.CR3)
	cost := &c.Model.Costs
	cmovCost := cost.ALU
	if c.FusedCmovGuards {
		cmovCost = 0
	}
	sb := !c.noChain

	n := 0
chain:
	for {
		set := c.TLB.SetFor(b.vpn)
		for _, in := range b.ins {
			if n >= limit {
				break chain
			}
			if n > 0 {
				// Per-step preamble for the instructions after the first,
				// identical to Step's (with pending counts folded in). A
				// chained block's first instruction takes the same path:
				// these are exactly the checks the caller's next StepBlock
				// entry would have run, and the thunk probe is provably a
				// miss (block heads are thunk-free for this generation).
				if c.halted {
					c.syncPending()
					return n + 1, ErrHalted
				}
				if c.CycleBudget != 0 && c.Cycles+c.pendCycles >= c.CycleBudget {
					c.syncPending()
					c.flushCycleTelemetry()
					return n + 1, c.budgetErr()
				}
				if c.interrupted.Load() {
					c.interrupted.Store(false)
					c.syncPending()
					c.flushCycleTelemetry()
					return n + 1, c.interruptedErr()
				}
				if c.Instret&0xfff == 0 {
					c.syncPending()
					c.flushCycleTelemetry()
				}
			}

			// Fetch: per-instruction TLB probe on the pinned set, with
			// Lookup's exact bookkeeping and the reference glitch/miss
			// handling (interior thunk probes are elided — block building
			// proved the addresses thunk-free for this generation). A
			// probe whose previous hit is still guarded by the TLB
			// generation replays via Rehit instead of rescanning; CR3
			// cannot change inside a block (MOVCR3 ends one), but the
			// generation can (a data access in the reference execute
			// switch may insert), which the guard catches.
			var pte mem.PTE
			var hit bool
			if !c.noXlate && c.xcFetch.hit(c, b.vpn) {
				pte = c.TLB.Rehit(c.xcFetch.e)
				hit = true
			} else if e, ok := set.LookupH(b.vpn, pcid); ok {
				pte = e.PTE()
				hit = true
				if !c.noXlate {
					c.xcFetch.fill(c, b.vpn, e)
				}
			}
			if hit {
				if c.FI.Fire(faultinject.TLBGlitch) {
					// Injected weather: a shootdown IPI lands between
					// lookup and use; drop the entry and take the walk.
					c.TLB.FlushVPN(b.vpn)
					hit = false
				} else if f := checkPTE(pte, mem.AccessFetch, user); f != mem.FaultNone {
					c.syncPending()
					return n + 1, c.deliverTrap(Fault{Kind: FaultPage, VA: c.PC, Access: mem.AccessFetch, PC: c.PC})
				}
			}
			if !hit {
				c.syncPending()
				if _, _, mf := c.xlateWalk(pt, c.PC, b.vpn, pcid, user, mem.AccessFetch, true); mf != mem.FaultNone {
					return n + 1, c.deliverTrap(Fault{Kind: FaultPage, VA: c.PC, Access: mem.AccessFetch, PC: c.PC})
				}
			}

			// Superblock inline branches: with chaining on, plain direct
			// control transfers — the ops that end every hot loop body —
			// retire here with the reference path's exact predictor,
			// history and charge sequence, then link straight into the
			// successor block. They cannot fault, cannot touch the fetch
			// context, and consult the injector only through speculate(),
			// which the reference path reaches with identical state: the
			// accumulated counters are published before any observer
			// (speculate's transient window reads c.Cycles) exactly as
			// the reference path's syncPending-before-execute does.
			if sb {
				switch in.Op {
				case isa.JMP:
					c.pendCycles += cost.ALU
					c.BHB.Record(c.PC, in.Target)
					if c.OnRetire != nil {
						c.syncPending()
						c.OnRetire(c.PC, in)
					}
					c.PC = in.Target
					c.Instret++
					c.pendInstret++
					if c.SB.Len() != 0 {
						c.SB.Tick()
					}
					n++
					if n < limit {
						if nb := c.chainNext(b, c.PC); nb != nil {
							b = nb
							continue chain
						}
					}
					break chain
				case isa.JEQ, isa.JNE, isa.JLT, isa.JGE:
					c.pendCycles += cost.ALU
					taken := c.condTaken(in.Op)
					predicted := c.Cond.Update(c.PC, taken)
					next := c.PC + isa.InstrBytes
					if predicted != taken {
						// Misprediction: the wrong path runs transiently
						// — the Spectre V1 window. Publish the pending
						// counters first; the transient window observes
						// the architectural clock.
						wrongPC := next
						if predicted {
							wrongPC = in.Target
						}
						c.syncPending()
						c.speculate(wrongPC, nil)
						c.pendCycles += cost.Mispredict
						c.PMC.Add(pmc.BranchMispredicts, 1)
					}
					if taken {
						c.BHB.Record(c.PC, in.Target)
						next = in.Target
					}
					if c.OnRetire != nil {
						c.syncPending()
						c.OnRetire(c.PC, in)
					}
					c.PC = next
					c.Instret++
					c.pendInstret++
					if c.SB.Len() != 0 {
						c.SB.Tick()
					}
					n++
					if n < limit {
						if nb := c.chainNext(b, c.PC); nb != nil {
							b = nb
							continue chain
						}
					}
					break chain
				}
			}

			// Execute. Simple ALU ops — no faults, no microarchitectural
			// side effects, no injector consultation — run inline with
			// their charges accumulated; everything else takes the
			// reference execute switch with fully published counters.
			switch in.Op {
			case isa.NOP:
				c.pendCycles += cost.ALU
			case isa.MOVI:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] = uint64(in.Imm)
			case isa.MOV:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] = c.Regs[in.Src1]
			case isa.ADD:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] += c.Regs[in.Src1]
			case isa.ADDI:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] += uint64(in.Imm)
			case isa.SUB:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] -= c.Regs[in.Src1]
			case isa.SUBI:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] -= uint64(in.Imm)
			case isa.MUL:
				c.pendCycles += cost.Mul
				c.Regs[in.Dst] *= c.Regs[in.Src1]
			case isa.AND:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] &= c.Regs[in.Src1]
			case isa.ANDI:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] &= uint64(in.Imm)
			case isa.OR:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] |= c.Regs[in.Src1]
			case isa.XOR:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] ^= c.Regs[in.Src1]
			case isa.SHLI:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] <<= uint64(in.Imm)
			case isa.SHRI:
				c.pendCycles += cost.ALU
				c.Regs[in.Dst] >>= uint64(in.Imm)
			case isa.CMP:
				c.pendCycles += cost.ALU
				a, b := c.Regs[in.Dst], c.Regs[in.Src1]
				c.FlagEQ, c.FlagLT = a == b, a < b
			case isa.CMPI:
				c.pendCycles += cost.ALU
				a, b := c.Regs[in.Dst], uint64(in.Imm)
				c.FlagEQ, c.FlagLT = a == b, a < b
			case isa.CMOVEQ:
				c.pendCycles += cmovCost
				if c.FlagEQ {
					c.Regs[in.Dst] = c.Regs[in.Src1]
				}
			case isa.CMOVNE:
				c.pendCycles += cmovCost
				if !c.FlagEQ {
					c.Regs[in.Dst] = c.Regs[in.Src1]
				}
			case isa.CMOVLT:
				c.pendCycles += cmovCost
				if c.FlagLT {
					c.Regs[in.Dst] = c.Regs[in.Src1]
				}
			case isa.CMOVGE:
				c.pendCycles += cmovCost
				if !c.FlagLT {
					c.Regs[in.Dst] = c.Regs[in.Src1]
				}
			default:
				c.syncPending()
				pcBefore := c.PC
				next, f := c.execute(in)
				if f != nil {
					return n + 1, c.deliverTrap(*f)
				}
				if c.OnRetire != nil {
					c.OnRetire(c.PC, in)
				}
				c.PC = next
				c.Instret++
				c.PMC.Add(pmc.Instructions, 1)
				c.SB.Tick()
				n++
				if in.Op.IsBlockEnd() || next != pcBefore+isa.InstrBytes {
					// Chain through reference-path control transfers too
					// (calls, returns, indirect branches): they cannot
					// change the fetch context either. Serializing ops
					// (syscalls, CR3/MSR writes, HLT) can, and return to
					// the caller as before.
					if sb && n < limit && chainSafe(in.Op) {
						if nb := c.chainNext(b, c.PC); nb != nil {
							b = nb
							continue chain
						}
					}
					return n, nil
				}
				continue
			}

			// Fast-op postlude (reference retirement order, with the
			// instruction count deferred).
			if c.OnRetire != nil {
				c.syncPending()
				c.OnRetire(c.PC, in)
			}
			c.PC += isa.InstrBytes
			c.Instret++
			c.pendInstret++
			if c.SB.Len() != 0 {
				c.SB.Tick()
			}
			n++
		}
		// Block exhausted without a block-ending op (page boundary,
		// maxBlockLen, thunk-adjacent or program end): the successor is
		// the sequential next instruction, which is chainable the same
		// way a jump target is.
		if !sb || n >= limit {
			break
		}
		nb := c.chainNext(b, c.PC)
		if nb == nil {
			break
		}
		b = nb
	}
	c.syncPending()
	return n, nil
}

// chainSafe reports whether op is a control transfer a superblock chain
// may follow: it transfers control without touching privilege, CR3/PCID,
// MSRs, loaded code or the halt flag, so the fetch context validated at
// dispatch is still valid at its target. Every other block-ending op is
// serializing and returns to the dispatch loop.
func chainSafe(op isa.Op) bool {
	switch op {
	case isa.JMP, isa.JEQ, isa.JNE, isa.JLT, isa.JGE,
		isa.CALL, isa.RET, isa.CALLIND, isa.JMPIND:
		return true
	}
	return false
}
