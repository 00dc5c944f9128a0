package cpu

import (
	"spectrebench/internal/faultinject"
	"spectrebench/internal/mem"
	"spectrebench/internal/pmc"
)

// crossesPage reports whether an 8-byte access at va straddles a page
// boundary. The simulator's data path is 8 bytes wide and translates one
// page per access, so a straddling access cannot be satisfied; the core
// raises FaultAlign and lets the kernel trap path decide (it kills the
// offending process, like a real kernel delivering SIGBUS).
func crossesPage(va uint64) bool {
	return va&mem.PageMask > mem.PageSize-8
}

// xlate translates a virtual address for the given access, charging TLB
// and page-walk costs when charge is true (architectural accesses).
// Transient lookups pass charge=false: speculation does not stall the
// committed stream, but it does install TLB entries and leave the PTE
// visible to the leak models.
func (c *Core) xlate(va uint64, acc mem.Access, charge bool) (pa uint64, pte mem.PTE, fault mem.FaultKind) {
	vpn := mem.VPN(va)
	user := c.Priv == PrivUser

	if !c.noXlate {
		// Last-translation cache: if the entry that served this access
		// stream's previous translation is provably still the scan's
		// first match (same VPN, same CR3, unchanged TLB generation),
		// replay the hit against it — identical LRU/Hits bookkeeping via
		// Rehit, identical injector draw, identical permission check —
		// and skip both the registry lookup and the set scan. The
		// registry lookup is skipped soundly: the cache was filled after
		// a translation under this exact CR3, and registry bindings are
		// never removed, so PageTable() cannot have become nil.
		xc := &c.xcData
		if acc == mem.AccessFetch {
			xc = &c.xcFetch
		}
		if xc.hit(c, vpn) {
			pte = c.TLB.Rehit(xc.e)
			if charge && c.FI.Fire(faultinject.TLBGlitch) {
				// Injected weather: a shootdown IPI lands between lookup
				// and use; drop the entry and take the walk below. (The
				// flush bumps the TLB generation, emptying this cache.)
				c.TLB.FlushVPN(vpn)
				return c.xlateWalk(c.PageTable(), va, vpn, mem.CR3PCID(c.CR3), user, acc, charge)
			}
			fault = checkPTE(pte, acc, user)
			if fault != mem.FaultNone {
				return 0, pte, fault
			}
			return pte.Phys | (va & mem.PageMask), pte, mem.FaultNone
		}
	}

	pt := c.PageTable()
	if pt == nil {
		return 0, mem.PTE{}, mem.FaultNotPresent
	}
	pcid := mem.CR3PCID(c.CR3)

	if e, ok := c.TLB.LookupH(vpn, pcid); ok {
		if charge && c.FI.Fire(faultinject.TLBGlitch) {
			// Injected weather: a shootdown IPI lands between lookup
			// and use; drop the entry and take the walk below.
			c.TLB.FlushVPN(vpn)
		} else {
			if !c.noXlate {
				if acc == mem.AccessFetch {
					c.xcFetch.fill(c, vpn, e)
				} else {
					c.xcData.fill(c, vpn, e)
				}
			}
			pte = e.PTE()
			fault = checkPTE(pte, acc, user)
			if fault != mem.FaultNone {
				return 0, pte, fault
			}
			return pte.Phys | (va & mem.PageMask), pte, mem.FaultNone
		}
	}

	return c.xlateWalk(pt, va, vpn, pcid, user, acc, charge)
}

// xlateWalk is the TLB-miss tail of xlate: charge the walk, translate
// through the active page table (and the nested table for guests), and
// install the result. The decoded-block fetch path calls it directly
// after its own pinned-set TLB probe misses, so miss handling is one
// shared code path with identical counters and charges.
func (c *Core) xlateWalk(pt *mem.PageTable, va, vpn uint64, pcid uint16, user bool, acc mem.Access, charge bool) (pa uint64, pte mem.PTE, fault mem.FaultKind) {
	if charge {
		c.charge(c.Model.Costs.TLBMiss)
		c.PMC.Add(pmc.TLBMisses, 1)
	}
	pa, pte, fault = pt.Translate(va, acc, user)
	if fault != mem.FaultNone {
		return 0, pte, fault
	}
	// Nested translation when running as a guest.
	if c.Guest && c.Nested != nil {
		hpa, nfault := c.Nested.Translate(pa, acc)
		if nfault != mem.FaultNone {
			return 0, pte, nfault
		}
		pa = hpa
		pte.Phys = mem.PageBase(hpa)
	}
	c.TLB.Insert(vpn, pcid, pte)
	return pa, pte, mem.FaultNone
}

func checkPTE(pte mem.PTE, acc mem.Access, user bool) mem.FaultKind {
	if !pte.Present {
		return mem.FaultNotPresent
	}
	if user && !pte.User {
		return mem.FaultProtection
	}
	if acc == mem.AccessWrite && !pte.Writable {
		return mem.FaultWrite
	}
	if acc == mem.AccessFetch && pte.NX {
		return mem.FaultNX
	}
	return mem.FaultNone
}

// load performs an architectural 8-byte load, charging cache latency and
// modelling store-to-load forwarding. When the load forwards from an
// in-flight store on an SSB-vulnerable part with SSBD off, bypass is
// set and stale is the pre-store value the disambiguation hardware
// would transiently expose; the executor runs the transient window with
// it.
func (c *Core) load(va uint64) (v, stale uint64, bypass bool, fault *Fault) {
	c.lastLoadRet = c.Instret
	if crossesPage(va) {
		return 0, 0, false, &Fault{Kind: FaultAlign, VA: va, Access: mem.AccessRead, PC: c.PC}
	}
	pa, pte, mf := c.xlate(va, mem.AccessRead, true)
	if mf != mem.FaultNone {
		// A faulting architectural load is the trigger point for the
		// Meltdown family. The transient continuation runs before the
		// fault is delivered; the executor calls faultingLoadLeak with
		// the destination register context.
		c.pendingLeak = pendingLeak{va: va, pte: pte, kind: mf, valid: true}
		return 0, 0, false, &Fault{Kind: FaultPage, VA: va, Access: mem.AccessRead, PC: c.PC}
	}

	if e, hit := c.SB.Lookup(pa); hit {
		// Store-to-load forwarding.
		if c.SSBDActive() && e.Age < 2 {
			// SSBD: a load aliasing a just-issued store (whose address
			// may still be unresolved) must wait for disambiguation
			// instead of forwarding optimistically (§5.5). Older
			// in-flight stores have resolved and forward normally.
			c.charge(c.Model.Costs.SSBDForwardStall)
		} else {
			c.charge(c.Model.Costs.StoreForwardCycle)
			if !c.SSBDActive() && c.SpecEnabled && c.Model.Vulns.SSB && e.Prev != e.Value {
				// Speculative Store Bypass: memory disambiguation
				// speculates the load does not alias the in-flight
				// store, transiently using the stale memory value. The
				// executor consults the disambiguation predictor before
				// actually opening the window; SSBD suppresses the
				// bypass entirely.
				stale, bypass = e.Prev, true
			}
		}
		c.FB.Deposit(e.Value)
		return e.Value, stale, bypass, nil
	}

	missesBefore := c.L1.Misses
	c.charge(c.L1.Access(pa))
	if c.L1.Misses > missesBefore {
		c.PMC.Add(pmc.L1Misses, 1)
	}
	v = c.Phys.Read64(pa)
	c.FB.Deposit(v)
	if c.FI.Fire(faultinject.CacheEvict) {
		// Injected weather: the line is evicted right after use (an
		// imaginary sibling's conflict miss); the next access re-fills.
		c.L1.Flush(pa)
	}
	return v, 0, false, nil
}

// store performs an architectural 8-byte store. The value is written
// through to physical memory immediately (architectural state is always
// current); the store buffer entry models the forwarding window.
func (c *Core) store(va uint64, v uint64) *Fault {
	if crossesPage(va) {
		return &Fault{Kind: FaultAlign, VA: va, Access: mem.AccessWrite, PC: c.PC}
	}
	pa, _, mf := c.xlate(va, mem.AccessWrite, true)
	if mf != mem.FaultNone {
		return &Fault{Kind: FaultPage, VA: va, Access: mem.AccessWrite, PC: c.PC}
	}
	prev := c.Phys.Read64(pa)
	c.Phys.Write64(pa, v)
	c.SB.Insert(pa, v, prev)
	c.lastStoreRet = c.Instret
	c.charge(c.L1.Access(pa))
	c.FB.Deposit(v)
	return nil
}

// pendingLeak records the translation state of a faulting load so the
// executor can run the Meltdown-family transient window with register
// context before delivering the fault.
type pendingLeak struct {
	va    uint64
	pte   mem.PTE
	kind  mem.FaultKind
	valid bool
}

// leakValue resolves what a faulting load transiently observes:
//
//   - Meltdown: user access to a present supervisor page transiently
//     returns the real data on vulnerable parts. PTI removes the
//     mapping entirely, so the walk yields not-present and nothing
//     leaks.
//   - L1TF: access through a non-present PTE transiently returns L1
//     contents addressed by the PTE's frame bits on vulnerable parts.
//     PTE inversion points the frame at an uncacheable address.
//   - MDS: any faulting load on a vulnerable part can transiently
//     observe stale fill-buffer contents, regardless of address.
//
// ok is false when the part leaks nothing (fixed hardware, or mitigated
// page tables).
func (c *Core) leakValue(p pendingLeak) (uint64, bool) {
	if !c.SpecEnabled || !p.valid {
		return 0, false
	}
	switch p.kind {
	case mem.FaultProtection:
		if c.Model.Vulns.Meltdown && p.pte.Present {
			return c.Phys.Read64(p.pte.Phys | (p.va & mem.PageMask)), true
		}
	case mem.FaultNotPresent:
		if c.Model.Vulns.L1TF && p.pte.Phys != 0 {
			// The "terminal fault" path: translation stops at the
			// not-present PTE but the frame bits still index the L1.
			pa := p.pte.Phys | (p.va & mem.PageMask)
			if c.L1.Probe(pa) {
				return c.Phys.Read64(pa), true
			}
		}
	}
	if c.Model.Vulns.MDS {
		// Fill-buffer sampling: the faulting load transiently
		// completes with whatever data is in the shared buffers.
		return c.FB.Sample(), true
	}
	return 0, false
}
