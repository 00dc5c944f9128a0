// Copy-on-write snapshots: frozen images of physical memory and page
// tables that checkpointed warmup forks cells from. An image is built
// once (by constructing a throwaway machine and freezing its state) and
// then shared by every cell whose checkpoint key matches; forking from
// an image costs one small allocation, not a copy of the image.
//
// Both image kinds follow the same builder pattern: the builder
// constructs state into an ordinary Phys/PageTable, calls
// Snapshot/Freeze, and discards the builder object. Nothing may write
// through the builder after freezing — the image aliases its maps — so
// the freeze methods are documented as consuming their receiver.
// Consumers fork with NewPhysFrom/NewTableFrom and see the image as a
// read-only base layer: reads fall through to it, writes land in a
// private overlay (Phys privatises the touched page; PageTable shadows
// the entry), so forks never disturb the image or each other.
package mem

// PhysImage is an immutable snapshot of physical memory. Safe to share
// across goroutines: the pages are never written after Snapshot.
type PhysImage struct {
	pages map[uint64]*[PageSize]byte
}

// Pages returns the number of populated pages in the image.
func (img *PhysImage) Pages() int { return len(img.pages) }

// Snapshot freezes p's current contents into an immutable image. It
// consumes the receiver: the caller must not read or write p afterwards
// (the image aliases p's page map). Build the state, snapshot it, drop
// the builder.
func (p *Phys) Snapshot() *PhysImage {
	if p.base == nil {
		return &PhysImage{pages: p.pages}
	}
	// Snapshot of a fork: merge the overlay over the base so the image
	// is self-contained (pages are shared with both, never copied).
	merged := make(map[uint64]*[PageSize]byte, len(p.base)+len(p.pages))
	for ppn, pg := range p.base {
		merged[ppn] = pg
	}
	for ppn, pg := range p.pages {
		merged[ppn] = pg
	}
	return &PhysImage{pages: merged}
}

// NewPhysFrom returns physical memory forked from a snapshot: reads see
// the image's pages, and the first write to any shared page copies it
// into the fork (copy-on-write), so a fork costs one map allocation
// regardless of image size.
func NewPhysFrom(img *PhysImage) *Phys {
	return &Phys{pages: make(map[uint64]*[PageSize]byte), base: img.pages}
}

// PTImage is an immutable snapshot of a page table's mappings. Safe to
// share across goroutines.
type PTImage struct {
	entries map[uint64]PTE
}

// Len returns the number of mappings in the image.
func (img *PTImage) Len() int { return len(img.entries) }

// Freeze converts pt's current mappings into an immutable image. Like
// Phys.Snapshot it consumes the receiver: the image aliases pt's entry
// map, so the caller must discard pt without further Map/Unmap calls.
func (pt *PageTable) Freeze() *PTImage {
	if pt.base == nil && len(pt.holes) == 0 {
		return &PTImage{entries: pt.entries}
	}
	merged := make(map[uint64]PTE, pt.Len())
	for vpn, pte := range pt.base {
		if _, hole := pt.holes[vpn]; !hole {
			merged[vpn] = pte
		}
	}
	for vpn, pte := range pt.entries {
		merged[vpn] = pte
	}
	return &PTImage{entries: merged}
}

// NewTableFrom allocates a table forked from a frozen image: the image
// becomes a read-only base layer and later Map/Unmap calls build a
// private overlay, so the fork is a page-table copy in name only — it
// costs one registry slot and an empty map. Root-id assignment is
// identical to NewTable, so a forked table is indistinguishable from a
// freshly populated one to everything that consumes CR3 values.
func (r *Registry) NewTableFrom(img *PTImage, pcid uint16) *PageTable {
	pt := r.NewTable(pcid)
	pt.base = img.entries
	return pt
}
