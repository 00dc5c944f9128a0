// Per-core translation caches: the core-side half of the memory-path
// fast path. The other halves live with their structures:
//
//   - internal/cache: epoch-bump flushes (the per-VM-entry L1TF flush
//     becomes O(1)) and per-set MRU way hints.
//   - internal/tlb: epoch-bump FlushAll/FlushNonGlobal.
//   - internal/mem: the Phys last-page pointer cache.
//   - this package: a per-core last-translation cache (one for fetches,
//     one for data) holding the *tlb.Entry that hit last time, keyed by
//     (VPN, CR3) and stamped with the TLB's mutation generation.
//
// The translation cache is the subtle one. A TLB lookup's observable
// effects are the hit/miss counters, the LRU clock, the entry's
// timestamp — and, on charged hits, one draw from the fault injector's
// PRNG stream, whose order is part of the determinism contract. The
// cache therefore never short-circuits any of that: a cached hit calls
// tlb.Rehit (identical bookkeeping to the scan finding the entry) and
// then consults the injector exactly where the reference path does. All
// it skips is the set scan itself — and the page-table registry lookup,
// which has no simulated effects at all. Validity is establishment by
// three equalities: same VPN, same CR3 (which pins the PCID and the
// page-table root), and same tlb.Gen (no insert/flush/reset has touched
// the TLB, so the cached entry is provably still the first match in its
// set's scan order).
package cpu

import "spectrebench/internal/tlb"

// xlateCache remembers the TLB entry that served the previous
// translation of one access stream. Valid only while all three keys
// hold; gen is the cheap one that moves (any TLB insert, flush or reset
// bumps it), so straight-line code with a warm TLB revalidates in three
// compares instead of a set scan.
type xlateCache struct {
	e   *tlb.Entry // nil = empty
	gen uint64     // tlb.Gen at fill
	cr3 uint64     // CR3 at fill (pins PCID and page-table root)
	vpn uint64
}

// hit reports whether the cached entry is still authoritative for vpn
// under the core's current CR3 and TLB state.
func (x *xlateCache) hit(c *Core, vpn uint64) bool {
	return x.e != nil && x.vpn == vpn && x.cr3 == c.CR3 && x.gen == c.TLB.Gen()
}

// fill records a fresh hit. Must be called only with an entry just
// returned by a TLB lookup under the current CR3.
func (x *xlateCache) fill(c *Core, vpn uint64, e *tlb.Entry) {
	*x = xlateCache{e: e, gen: c.TLB.Gen(), cr3: c.CR3, vpn: vpn}
}

// clearXlateCaches drops both translation streams and the page-table
// pointer cache (used when the core changes identity: pool reinit and
// recycle).
func (c *Core) clearXlateCaches() {
	c.xcFetch = xlateCache{}
	c.xcData = xlateCache{}
	c.lastPTRoot, c.lastPT = 0, nil
}
