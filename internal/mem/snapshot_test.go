package mem

import "testing"

// TestPTImageForkShadowUnmapLen covers the page-table overlay: forks see
// the frozen mappings, Map shadows, Unmap punches holes, and Len counts
// each vpn exactly once across layers.
func TestPTImageForkShadowUnmapLen(t *testing.T) {
	reg := NewRegistry()
	b := reg.NewTable(0)
	b.MapRange(0x10000, 0x10000, 4, true, true, false, false) // vpns 16..19
	img := b.Freeze()
	if img.Len() != 4 {
		t.Fatalf("image Len = %d, want 4", img.Len())
	}

	f := reg.NewTableFrom(img, 5)
	if f.PCID != 5 {
		t.Fatalf("fork PCID = %d, want 5", f.PCID)
	}
	if f.Len() != 4 {
		t.Fatalf("fresh fork Len = %d, want 4", f.Len())
	}
	if pte, ok := f.Lookup(VPN(0x11000)); !ok || pte.Phys != 0x11000 {
		t.Fatalf("fork Lookup fell through wrong: %+v %v", pte, ok)
	}

	// Shadow one base vpn with new permissions: Len unchanged.
	pte, _ := f.Lookup(16)
	pte.Writable = false
	f.Map(16, pte)
	if f.Len() != 4 {
		t.Errorf("Len after shadowing = %d, want 4", f.Len())
	}
	if got, _ := f.Lookup(16); got.Writable {
		t.Error("shadowed entry did not take precedence over the base")
	}

	// Unmap a base vpn: a hole, not a base mutation.
	f.Unmap(17)
	if _, ok := f.Lookup(17); ok {
		t.Error("unmapped base vpn still visible through the fork")
	}
	if f.Len() != 3 {
		t.Errorf("Len after hole = %d, want 3", f.Len())
	}
	// Re-map fills the hole back in.
	f.Map(17, PTE{Phys: 0x40000, Present: true})
	if f.Len() != 4 {
		t.Errorf("Len after re-map = %d, want 4", f.Len())
	}
	if got, ok := f.Lookup(17); !ok || got.Phys != 0x40000 {
		t.Errorf("re-mapped hole reads wrong: %+v %v", got, ok)
	}

	// A brand-new vpn extends the table.
	f.Map(100, PTE{Phys: 0x50000, Present: true})
	if f.Len() != 5 {
		t.Errorf("Len after new vpn = %d, want 5", f.Len())
	}

	// The image and a sibling fork never saw any of it.
	g := reg.NewTableFrom(img, 6)
	if g.Len() != 4 {
		t.Errorf("sibling fork Len = %d, want 4", g.Len())
	}
	if got, ok := g.Lookup(17); !ok || got.Phys != 0x11000 {
		t.Errorf("sibling sees mutated base: %+v %v", got, ok)
	}
	if got, _ := g.Lookup(16); !got.Writable {
		t.Error("sibling lost base permissions to a fork's shadow")
	}
}

// TestPTForkTranslateParity checks the hot Translate path resolves
// identically through a fork and through a cold-populated table —
// including permission faults and holes.
func TestPTForkTranslateParity(t *testing.T) {
	build := func(pt *PageTable) {
		pt.MapRange(0x10000, 0x80000, 8, true, true, false, false)
		pt.MapRange(0x30000, 0x90000, 2, false, false, true, true)
	}
	reg := NewRegistry()
	cold := reg.NewTable(1)
	build(cold)

	builder := reg.NewTable(0)
	build(builder)
	fork := reg.NewTableFrom(builder.Freeze(), 1)

	for _, tc := range []struct {
		va   uint64
		acc  Access
		user bool
	}{
		{0x10008, AccessRead, true},
		{0x12000, AccessWrite, true},
		{0x30000, AccessRead, true},   // supervisor page from user: fault
		{0x30000, AccessFetch, false}, // NX page: fault
		{0x70000, AccessRead, true},   // unmapped
	} {
		cpa, cpte, cf := cold.Translate(tc.va, tc.acc, tc.user)
		fpa, fpte, ff := fork.Translate(tc.va, tc.acc, tc.user)
		if cpa != fpa || cpte != fpte || cf != ff {
			t.Errorf("va %#x acc %v user %v: cold (%#x %+v %v) fork (%#x %+v %v)",
				tc.va, tc.acc, tc.user, cpa, cpte, cf, fpa, fpte, ff)
		}
	}

	// A hole must fault exactly like a never-mapped page.
	fork.Unmap(VPN(0x11000))
	cold.Unmap(VPN(0x11000))
	cpa, _, cf := cold.Translate(0x11000, AccessRead, true)
	fpa, _, ff := fork.Translate(0x11000, AccessRead, true)
	if cpa != fpa || cf != ff {
		t.Errorf("hole translate: cold (%#x %v) fork (%#x %v)", cpa, cf, fpa, ff)
	}
}

// TestPTCloneOfForkSharesBase checks Clone on a forked table: deep-copy
// semantics (mutations stay private) with the frozen base shared, holes
// copied, and Len preserved.
func TestPTCloneOfForkSharesBase(t *testing.T) {
	reg := NewRegistry()
	b := reg.NewTable(0)
	b.MapRange(0x10000, 0x10000, 6, true, true, false, false) // vpns 16..21
	f := reg.NewTableFrom(b.Freeze(), 2)
	f.Unmap(18)
	f.Map(30, PTE{Phys: 0x60000, Present: true})

	c := f.Clone(reg, 3)
	if c.Len() != f.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), f.Len())
	}
	if c.base == nil || &c.base != &f.base && c.base[16] != f.base[16] {
		t.Error("clone did not share the frozen base layer")
	}
	if _, ok := c.Lookup(18); ok {
		t.Error("clone lost the hole")
	}
	// Divergence after the clone stays private on both sides.
	c.Map(18, PTE{Phys: 0x70000, Present: true})
	if _, ok := f.Lookup(18); ok {
		t.Error("clone re-map leaked into the original")
	}
	f.Unmap(19)
	if _, ok := c.Lookup(19); !ok {
		t.Error("original unmap leaked into the clone")
	}
	if c.Root == f.Root {
		t.Error("clone shares the original's root id")
	}
}

// TestNewTableFromRootParity checks fork and cold construction draw
// identical root ids from the registry in the same order — CR3 values
// are part of the simulated output, so fork must be invisible there.
func TestNewTableFromRootParity(t *testing.T) {
	mk := func(fork bool) []uint64 {
		reg := NewRegistry()
		var img *PTImage
		{
			scratch := NewRegistry().NewTable(0)
			scratch.MapRange(0x10000, 0x10000, 2, true, true, false, false)
			img = scratch.Freeze()
		}
		var roots []uint64
		for i := 0; i < 3; i++ {
			var pt *PageTable
			if fork {
				pt = reg.NewTableFrom(img, uint16(i))
			} else {
				pt = reg.NewTable(uint16(i))
				pt.MapRange(0x10000, 0x10000, 2, true, true, false, false)
			}
			roots = append(roots, CR3(pt))
		}
		return roots
	}
	cold, forked := mk(false), mk(true)
	for i := range cold {
		if cold[i] != forked[i] {
			t.Fatalf("table %d: cold CR3 %#x, forked CR3 %#x", i, cold[i], forked[i])
		}
	}
}
