// Copy-on-write page-table images: frozen templates that a kernel forks
// each process's page table from. An image is built once (by populating
// a throwaway table and freezing it) and then shared by every table
// forked from it; forking costs one small allocation, not a copy of the
// image.
//
// The builder constructs mappings into an ordinary PageTable, calls
// Freeze, and discards the builder. Nothing may write through the
// builder after freezing — the image aliases its map — so Freeze is
// documented as consuming its receiver. Consumers fork with
// NewTableFrom and see the image as a read-only base layer: lookups
// fall through to it, Map/Unmap land in a private overlay that shadows
// the entry, so forks never disturb the image or each other.
package mem

// PTImage is an immutable snapshot of a page table's mappings. Safe to
// share across goroutines.
type PTImage struct {
	entries map[uint64]PTE
}

// Len returns the number of mappings in the image.
func (img *PTImage) Len() int { return len(img.entries) }

// Freeze converts pt's current mappings into an immutable image. It
// consumes the receiver: the image aliases pt's entry map, so the
// caller must discard pt without further Map/Unmap calls.
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
