package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// physSpan is the physical window the differential fuzz touches: eight
// pages, so the last-page cache sees both repeats and switches.
const physSpan = 8 * PageSize

// randPA picks an address, biased towards page edges so accesses
// straddle pages and hop between them.
func randPA(r *rand.Rand) uint64 {
	page := uint64(r.Intn(physSpan / PageSize))
	switch r.Intn(4) {
	case 0:
		return page*PageSize + PageSize - uint64(1+r.Intn(12)) // near the end
	case 1:
		return page * PageSize
	default:
		return page*PageSize + uint64(r.Intn(PageSize-16))
	}
}

// TestPhysCacheDifferential drives random Read64/Write64/ReadBytes/
// WriteBytes/PageFor sequences through a Phys with the last-page cache
// and one without. Every read must return the same bytes from both (and
// match a flat shadow of the writes), and at the end both must hold
// byte-identical contents and the same populated-page count.
func TestPhysCacheDifferential(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		fast, ref := NewPhys(), NewPhys()
		ref.uncached = true
		shadow := make([]byte, physSpan+16)
		for step := 0; step < 3000; step++ {
			pa := randPA(r)
			switch k := r.Intn(90); {
			case k < 25:
				v := r.Uint64()
				fast.Write64(pa, v)
				ref.Write64(pa, v)
				binary.LittleEndian.PutUint64(shadow[pa:], v)
			case k < 50:
				a, b := fast.Read64(pa), ref.Read64(pa)
				if want := binary.LittleEndian.Uint64(shadow[pa:]); a != want || b != want {
					t.Fatalf("seed %d step %d: Read64(%#x) = cached %#x, reference %#x, want %#x", seed, step, pa, a, b, want)
				}
			case k < 62:
				buf := make([]byte, 1+r.Intn(16))
				r.Read(buf)
				fast.WriteBytes(pa, buf)
				ref.WriteBytes(pa, buf)
				copy(shadow[pa:], buf)
			case k < 80:
				n := 1 + r.Intn(16)
				a, b := make([]byte, n), make([]byte, n)
				fast.ReadBytes(pa, a)
				ref.ReadBytes(pa, b)
				if want := shadow[pa : pa+uint64(n)]; !bytes.Equal(a, want) || !bytes.Equal(b, want) {
					t.Fatalf("seed %d step %d: ReadBytes(%#x, %d) = cached %x, reference %x, want %x", seed, step, pa, n, a, b, want)
				}
			default:
				// The interpreter's direct page access: write through the
				// returned pointer, as the decoded-block path does.
				off := pa & PageMask
				v := byte(r.Intn(256))
				fast.PageFor(pa)[off] = v
				ref.PageFor(pa)[off] = v
				shadow[pa] = v
			}
		}
		a, b := make([]byte, physSpan), make([]byte, physSpan)
		fast.ReadBytes(0, a)
		ref.ReadBytes(0, b)
		if !bytes.Equal(a, b) || !bytes.Equal(a, shadow[:physSpan]) {
			t.Fatalf("seed %d: contents diverged between cached, reference and shadow", seed)
		}
		if pf, pr := fast.PopulatedPages(), ref.PopulatedPages(); pf != pr {
			t.Fatalf("seed %d: populated pages: cached %d, reference %d", seed, pf, pr)
		}
	}
}
