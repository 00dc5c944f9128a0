// Package mem models physical memory and page-table based address
// translation for the simulated machine, including the dual page tables
// used by kernel page-table isolation (PTI) and the nested page tables
// used when running guests under the hypervisor.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the architectural page size.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageMask extracts the offset within a page.
const PageMask = PageSize - 1

// VPN returns the virtual page number of va.
func VPN(va uint64) uint64 { return va >> PageShift }

// PageBase returns the page-aligned base of addr.
func PageBase(addr uint64) uint64 { return addr &^ uint64(PageMask) }

// Phys is sparse physical memory: pages spring into existence zeroed on
// first touch. All values are stored little-endian.
type Phys struct {
	pages map[uint64]*[PageSize]byte
	// Last-page cache: consecutive accesses overwhelmingly land on the
	// page of the previous access (straight-line code, stack traffic,
	// array sweeps), so remembering the last resolved page skips the
	// map hash on repeats. Pages are never deleted, so the pointer can
	// never dangle; lastPg==nil means no page cached (PPN 0 is a real
	// page number, so the pointer is the sentinel, not the PPN).
	lastPPN uint64
	lastPg  *[PageSize]byte
	// uncached selects the reference implementation: every access
	// resolves its page through the maps. Only this package's
	// differential tests set it.
	uncached bool
}

// NewPhys returns empty physical memory.
func NewPhys() *Phys {
	return &Phys{pages: make(map[uint64]*[PageSize]byte)}
}

func (p *Phys) page(pa uint64) *[PageSize]byte {
	ppn := pa >> PageShift
	if !p.uncached && p.lastPg != nil && p.lastPPN == ppn {
		return p.lastPg
	}
	pg, ok := p.pages[ppn]
	if !ok {
		pg = new([PageSize]byte)
		p.pages[ppn] = pg
	}
	if !p.uncached {
		p.lastPPN, p.lastPg = ppn, pg
	}
	return pg
}

// lookup resolves pa's page without allocating, caching a successful
// resolution. Absent pages are deliberately not cached as absent: the
// next access may allocate the page through page(), and a negative
// cache would have to be invalidated there — not worth it for a case
// (reads of never-written pages) that returns zero anyway.
func (p *Phys) lookup(pa uint64) (*[PageSize]byte, bool) {
	ppn := pa >> PageShift
	if !p.uncached && p.lastPg != nil && p.lastPPN == ppn {
		return p.lastPg, true
	}
	if pg, ok := p.pages[ppn]; ok {
		if !p.uncached {
			p.lastPPN, p.lastPg = ppn, pg
		}
		return pg, ok
	}
	return nil, false
}

// PageFor returns the backing array for pa's page, allocating it on
// first touch. The pointer stays valid for the lifetime of the Phys
// (pages are never removed); callers such as the decoded-block
// interpreter may hold it to bypass per-access resolution entirely.
func (p *Phys) PageFor(pa uint64) *[PageSize]byte { return p.page(pa) }

// Read64 reads 8 bytes at physical address pa. The fast path serves
// accesses within one page (all the core ever issues — it raises an
// alignment fault for straddling virtual accesses before translation);
// a physical access that does cross a boundary falls back to the
// byte-wise path rather than panicking, so library callers can never
// crash the process with a bad address.
func (p *Phys) Read64(pa uint64) uint64 {
	off := pa & PageMask
	if off+8 > PageSize {
		var buf [8]byte
		p.ReadBytes(pa, buf[:])
		return binary.LittleEndian.Uint64(buf[:])
	}
	pg, ok := p.lookup(pa)
	if !ok {
		return 0
	}
	return binary.LittleEndian.Uint64(pg[off : off+8])
}

// Write64 writes 8 bytes at physical address pa, crossing a page
// boundary byte-wise when needed (see Read64).
func (p *Phys) Write64(pa uint64, v uint64) {
	off := pa & PageMask
	if off+8 > PageSize {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		p.WriteBytes(pa, buf[:])
		return
	}
	binary.LittleEndian.PutUint64(p.page(pa)[off:off+8], v)
}

// ReadBytes copies len(buf) bytes starting at pa into buf, crossing pages
// as needed.
func (p *Phys) ReadBytes(pa uint64, buf []byte) {
	for len(buf) > 0 {
		off := pa & PageMask
		n := PageSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		if pg, ok := p.lookup(pa); ok {
			copy(buf[:n], pg[off:off+n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		pa += n
	}
}

// WriteBytes copies buf into physical memory starting at pa.
func (p *Phys) WriteBytes(pa uint64, buf []byte) {
	for len(buf) > 0 {
		off := pa & PageMask
		n := PageSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		copy(p.page(pa)[off:off+n], buf[:n])
		buf = buf[n:]
		pa += n
	}
}

// PopulatedPages returns the number of physical pages that have been
// touched (useful for tests and memory accounting).
func (p *Phys) PopulatedPages() int { return len(p.pages) }

// PTE is a page-table entry. The simulator uses a flat VPN→PTE map per
// table rather than a radix tree; the radix walk cost is folded into the
// TLB-miss penalty.
type PTE struct {
	Phys     uint64 // physical page base (page aligned)
	Present  bool
	Writable bool
	User     bool // accessible from user mode
	NX       bool // not executable
	Global   bool // survives PCID-specific TLB flushes
}

// FaultKind classifies a translation failure.
type FaultKind int

// Translation fault kinds.
const (
	FaultNone       FaultKind = iota
	FaultNotPresent           // no mapping / present bit clear
	FaultProtection           // user access to supervisor page
	FaultWrite                // write to read-only page
	FaultNX                   // fetch from no-execute page
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNotPresent:
		return "not-present"
	case FaultProtection:
		return "protection"
	case FaultWrite:
		return "write-protect"
	case FaultNX:
		return "no-execute"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Access describes the kind of memory access being translated.
type Access int

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessFetch
)

// PageTable maps virtual page numbers to PTEs. Root is the table's unique
// identity; loading Root<<12|PCID into CR3 activates the table.
type PageTable struct {
	Root    uint64 // unique id, assigned by the Registry
	PCID    uint16 // process-context id used to tag TLB entries
	entries map[uint64]PTE
	// base is the frozen template layer when this table was forked with
	// NewTableFrom (nil for plain tables). Lookups fall through to it;
	// Map shadows it in entries and Unmap records a hole over it. An
	// entry present in both layers counts once; entries and holes are
	// disjoint by construction (Map clears the hole).
	base  map[uint64]PTE
	holes map[uint64]struct{}
}

// Map installs a PTE for virtual page vpn.
func (pt *PageTable) Map(vpn uint64, pte PTE) {
	pt.entries[vpn] = pte
	if pt.holes != nil {
		delete(pt.holes, vpn)
	}
}

// MapRange identity-populates npages pages beginning at va onto physical
// memory beginning at pa with the given permissions.
func (pt *PageTable) MapRange(va, pa uint64, npages int, writable, user, nx bool, global bool) {
	if len(pt.entries) == 0 && npages > 8 {
		// First large range into a fresh table: size the map up front so
		// the insert loop doesn't rehash log(npages) times. Tables are
		// built per simulation cell, so construction cost is on the hot
		// path of every sweep.
		pt.entries = make(map[uint64]PTE, npages)
	}
	for i := 0; i < npages; i++ {
		pt.Map(VPN(va)+uint64(i), PTE{
			Phys:     PageBase(pa) + uint64(i)*PageSize,
			Present:  true,
			Writable: writable,
			User:     user,
			NX:       nx,
			Global:   global,
		})
	}
}

// Unmap removes the mapping for vpn.
func (pt *PageTable) Unmap(vpn uint64) {
	delete(pt.entries, vpn)
	if pt.base != nil {
		if _, ok := pt.base[vpn]; ok {
			if pt.holes == nil {
				pt.holes = make(map[uint64]struct{})
			}
			pt.holes[vpn] = struct{}{}
		}
	}
}

// Lookup returns the PTE for vpn. ok is false when there is no entry at
// all (distinct from an entry with Present=false, which matters for L1TF).
func (pt *PageTable) Lookup(vpn uint64) (PTE, bool) {
	if pte, ok := pt.entries[vpn]; ok {
		return pte, ok
	}
	if pt.base != nil {
		if _, hole := pt.holes[vpn]; !hole {
			pte, ok := pt.base[vpn]
			return pte, ok
		}
	}
	return PTE{}, false
}

// Len returns the number of installed entries. Forked tables count a
// vpn mapped in both layers once — fork's table-copy charge in the
// kernel depends on this matching a freshly populated table exactly.
func (pt *PageTable) Len() int {
	if pt.base == nil {
		return len(pt.entries)
	}
	n := len(pt.entries) + len(pt.base) - len(pt.holes)
	for vpn := range pt.entries {
		if _, ok := pt.base[vpn]; ok {
			n--
		}
	}
	return n
}

// Clone returns a deep copy of the table with a new identity assigned by
// reg. Used by fork and by PTI to derive the user-visible table. Cloning
// a forked table shares the frozen base layer and copies only the
// mutable overlay — the base is immutable, so sharing it preserves
// deep-copy semantics at a fraction of the cost (fork-heavy benchmarks
// clone kernel-sized tables every iteration).
func (pt *PageTable) Clone(reg *Registry, pcid uint16) *PageTable {
	n := reg.NewTable(pcid)
	n.base = pt.base
	if len(pt.holes) > 0 {
		n.holes = make(map[uint64]struct{}, len(pt.holes))
		for vpn := range pt.holes {
			n.holes[vpn] = struct{}{}
		}
	}
	// Pre-size for the copy: PTI clones every process table, so clone
	// cost (and its rehashing in particular) is paid per cell.
	n.entries = make(map[uint64]PTE, len(pt.entries))
	for vpn, pte := range pt.entries {
		n.entries[vpn] = pte
	}
	return n
}

// Translate checks a single access against the table.
func (pt *PageTable) Translate(va uint64, acc Access, user bool) (pa uint64, pte PTE, fault FaultKind) {
	pte, ok := pt.entries[VPN(va)]
	if !ok && pt.base != nil {
		if _, hole := pt.holes[VPN(va)]; !hole {
			pte, ok = pt.base[VPN(va)]
		}
	}
	if !ok || !pte.Present {
		return 0, pte, FaultNotPresent
	}
	if user && !pte.User {
		return 0, pte, FaultProtection
	}
	if acc == AccessWrite && !pte.Writable {
		return 0, pte, FaultWrite
	}
	if acc == AccessFetch && pte.NX {
		return 0, pte, FaultNX
	}
	return pte.Phys | (va & PageMask), pte, FaultNone
}

// Registry issues page tables with unique roots and resolves CR3 values
// back to tables, mimicking how hardware walks whatever CR3 points at.
type Registry struct {
	next   uint64
	tables map[uint64]*PageTable
}

// NewRegistry returns an empty page-table registry.
func NewRegistry() *Registry {
	return &Registry{next: 1, tables: make(map[uint64]*PageTable)}
}

// NewTable allocates a fresh empty table with the given PCID.
func (r *Registry) NewTable(pcid uint16) *PageTable {
	pt := &PageTable{Root: r.next, PCID: pcid, entries: make(map[uint64]PTE)}
	r.next++
	r.tables[pt.Root] = pt
	return pt
}

// Lookup resolves a root id to its table.
func (r *Registry) Lookup(root uint64) *PageTable { return r.tables[root] }

// CR3 encodes a table reference as a CR3 value (root<<12 | pcid).
func CR3(pt *PageTable) uint64 { return pt.Root<<PageShift | uint64(pt.PCID) }

// CR3Root extracts the root id from a CR3 value.
func CR3Root(cr3 uint64) uint64 { return cr3 >> PageShift }

// CR3PCID extracts the PCID from a CR3 value.
func CR3PCID(cr3 uint64) uint16 { return uint16(cr3 & PageMask) }

// NestedTable maps guest-physical to host-physical pages (EPT/NPT). A nil
// NestedTable means no virtualisation: guest-physical == host-physical.
// Large identity regions (the common huge-page EPT case) are stored as
// intervals rather than per-page entries.
type NestedTable struct {
	entries  map[uint64]PTE
	identity []identRange
}

type identRange struct {
	base, limit uint64 // [base, limit)
	offset      uint64 // hpa = gpa + offset
	writable    bool
}

// NewNestedTable returns an empty nested table.
func NewNestedTable() *NestedTable {
	return &NestedTable{entries: make(map[uint64]PTE)}
}

// MapIdentity installs a large mapping of [gpa, gpa+n) onto host physical
// memory starting at hpa, stored as a single interval (the EPT huge-page
// fast path).
func (nt *NestedTable) MapIdentity(gpa, hpa, n uint64, writable bool) {
	nt.identity = append(nt.identity, identRange{
		base: PageBase(gpa), limit: PageBase(gpa) + n, offset: hpa - PageBase(gpa), writable: writable,
	})
}

// Map installs a guest-physical → host-physical mapping.
func (nt *NestedTable) Map(gppn uint64, pte PTE) { nt.entries[gppn] = pte }

// MapRange populates npages starting at guest-physical gpa onto host
// physical hpa.
func (nt *NestedTable) MapRange(gpa, hpa uint64, npages int, writable bool) {
	for i := 0; i < npages; i++ {
		nt.Map(VPN(gpa)+uint64(i), PTE{
			Phys:     PageBase(hpa) + uint64(i)*PageSize,
			Present:  true,
			Writable: writable,
			User:     true,
		})
	}
}

// Translate maps a guest-physical address to host-physical.
func (nt *NestedTable) Translate(gpa uint64, acc Access) (uint64, FaultKind) {
	if pte, ok := nt.entries[VPN(gpa)]; ok {
		if !pte.Present {
			return 0, FaultNotPresent
		}
		if acc == AccessWrite && !pte.Writable {
			return 0, FaultWrite
		}
		return pte.Phys | (gpa & PageMask), FaultNone
	}
	for _, r := range nt.identity {
		if gpa >= r.base && gpa < r.limit {
			if acc == AccessWrite && !r.writable {
				return 0, FaultWrite
			}
			return gpa + r.offset, FaultNone
		}
	}
	return 0, FaultNotPresent
}
