package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// physSpan is the physical window the differential fuzz touches: eight
// pages, so the last-page caches see both repeats and switches.
const physSpan = 8 * PageSize

// physTriple is one live memory in the fuzz: the cached Phys, the
// uncached reference, and a flat shadow of what both must hold.
type physTriple struct {
	fast, ref *Phys
	shadow    []byte
}

// fork forks both implementations from snapshots of t, consuming t's
// Phys values as Snapshot requires, and returns two independent forks
// of the frozen image.
func (t physTriple) fork() (physTriple, physTriple) {
	fi, ri := t.fast.Snapshot(), t.ref.Snapshot()
	mk := func() physTriple {
		ref := NewPhysFrom(ri)
		ref.uncached = true
		return physTriple{fast: NewPhysFrom(fi), ref: ref, shadow: bytes.Clone(t.shadow)}
	}
	return mk(), mk()
}

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
// WriteBytes/PageFor sequences, interleaved with Snapshot and
// copy-on-write forks, through a Phys with the last-page caches and one
// without. Every read must return the same bytes from both (and match a
// flat shadow of the writes), and at the end every live memory must hold
// byte-identical contents and the same populated-page count.
func TestPhysCacheDifferential(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		ref := NewPhys()
		ref.uncached = true
		live := []physTriple{{fast: NewPhys(), ref: ref, shadow: make([]byte, physSpan+16)}}
		for step := 0; step < 3000; step++ {
			i := r.Intn(len(live))
			m := &live[i]
			pa := randPA(r)
			switch k := r.Intn(100); {
			case k < 25:
				v := r.Uint64()
				m.fast.Write64(pa, v)
				m.ref.Write64(pa, v)
				binary.LittleEndian.PutUint64(m.shadow[pa:], v)
			case k < 50:
				a, b := m.fast.Read64(pa), m.ref.Read64(pa)
				if want := binary.LittleEndian.Uint64(m.shadow[pa:]); a != want || b != want {
					t.Fatalf("seed %d step %d: Read64(%#x) = cached %#x, reference %#x, want %#x", seed, step, pa, a, b, want)
				}
			case k < 62:
				buf := make([]byte, 1+r.Intn(16))
				r.Read(buf)
				m.fast.WriteBytes(pa, buf)
				m.ref.WriteBytes(pa, buf)
				copy(m.shadow[pa:], buf)
			case k < 80:
				n := 1 + r.Intn(16)
				a, b := make([]byte, n), make([]byte, n)
				m.fast.ReadBytes(pa, a)
				m.ref.ReadBytes(pa, b)
				if want := m.shadow[pa : pa+uint64(n)]; !bytes.Equal(a, want) || !bytes.Equal(b, want) {
					t.Fatalf("seed %d step %d: ReadBytes(%#x, %d) = cached %x, reference %x, want %x", seed, step, pa, n, a, b, want)
				}
			case k < 90:
				// The interpreter's direct page access: write through the
				// returned pointer, as the decoded-block path does.
				off := pa & PageMask
				v := byte(r.Intn(256))
				m.fast.PageFor(pa)[off] = v
				m.ref.PageFor(pa)[off] = v
				m.shadow[pa] = v
			default:
				a, b := m.fork()
				live[i] = a
				if len(live) < 4 {
					live = append(live, b)
				}
			}
		}
		for i, m := range live {
			a, b := make([]byte, physSpan), make([]byte, physSpan)
			m.fast.ReadBytes(0, a)
			m.ref.ReadBytes(0, b)
			if !bytes.Equal(a, b) || !bytes.Equal(a, m.shadow[:physSpan]) {
				t.Fatalf("seed %d: memory %d contents diverged between cached, reference and shadow", seed, i)
			}
			if pf, pr := m.fast.PopulatedPages(), m.ref.PopulatedPages(); pf != pr {
				t.Fatalf("seed %d: memory %d populated pages: cached %d, reference %d", seed, i, pf, pr)
			}
		}
	}
}
