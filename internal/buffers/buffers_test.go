package buffers

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStoreBufferForwarding(t *testing.T) {
	sb := NewStoreBuffer(8, 4)
	sb.Insert(0x100, 42, 0, 0)
	e, ok := sb.Lookup(0x100, 0)
	if !ok || e.Value != 42 {
		t.Fatalf("lookup = %+v/%v", e, ok)
	}
	if sb.Forwards != 1 {
		t.Errorf("forwards = %d", sb.Forwards)
	}
	if _, ok := sb.Lookup(0x108, 0); ok {
		t.Error("forwarded from wrong address")
	}
}

func TestStoreBufferYoungestWins(t *testing.T) {
	sb := NewStoreBuffer(8, 10)
	sb.Insert(0x100, 1, 0, 0)
	sb.Insert(0x100, 2, 1, 0)
	e, ok := sb.Lookup(0x100, 0)
	if !ok || e.Value != 2 {
		t.Fatalf("lookup = %+v, want youngest store (2)", e)
	}
}

func TestStoreBufferDrainsWithAge(t *testing.T) {
	sb := NewStoreBuffer(8, 3)
	sb.Insert(0x100, 7, 0, 10) // issued at retire count 10
	if e, ok := sb.Lookup(0x100, 12); !ok {
		t.Fatal("entry drained too early")
	} else if e.Age != 2 {
		t.Errorf("age = %d two retirements after issue, want 2", e.Age)
	}
	if _, ok := sb.Lookup(0x100, 13); ok {
		t.Error("entry survived past drain age")
	}
	if sb.Len(13) != 0 {
		t.Errorf("len = %d after drain", sb.Len(13))
	}
}

// TestStoreBufferMatchesTickReference drives the timestamped buffer and a
// reference that ages every entry by one per retired instruction (the
// per-retire tick it replaces) through the same random inserts, lookups,
// drains and retirements: every lookup must agree on hit, value, prev
// and age, and the live counts must match.
func TestStoreBufferMatchesTickReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		capacity, drainAge := 1+r.Intn(6), 1+r.Intn(10)
		sb := NewStoreBuffer(capacity, drainAge)
		var ref []StoreEntry
		var now uint64
		for op := 0; op < 2000; op++ {
			addr := uint64(r.Intn(8)) * 8
			switch k := r.Intn(10); {
			case k < 3:
				v := r.Uint64()
				sb.Insert(addr, v, ^v, now)
				if len(ref) == capacity {
					ref = ref[1:]
				}
				ref = append(ref, StoreEntry{Addr: addr, Value: v, Prev: ^v})
			case k < 6:
				got, ok := sb.Lookup(addr, now)
				var want StoreEntry
				var wantOK bool
				for i := len(ref) - 1; i >= 0; i-- {
					if ref[i].Addr == addr {
						want, wantOK = ref[i], true
						break
					}
				}
				if ok != wantOK || got.Value != want.Value || got.Prev != want.Prev || got.Age != want.Age {
					t.Fatalf("round %d op %d: lookup %#x = %+v/%v, reference %+v/%v", round, op, addr, got, ok, want, wantOK)
				}
			case k < 7 && r.Intn(8) == 0:
				sb.Drain()
				ref = ref[:0]
			default:
				// Retire one instruction.
				now++
				w := 0
				for i := range ref {
					ref[i].Age++
					if ref[i].Age < drainAge {
						ref[w] = ref[i]
						w++
					}
				}
				ref = ref[:w]
			}
			if sb.Len(now) != len(ref) {
				t.Fatalf("round %d op %d: len %d, reference %d", round, op, sb.Len(now), len(ref))
			}
		}
	}
}

func TestStoreBufferCapacity(t *testing.T) {
	sb := NewStoreBuffer(2, 100)
	sb.Insert(0x100, 1, 0, 0)
	sb.Insert(0x108, 2, 0, 0)
	sb.Insert(0x110, 3, 0, 0) // evicts oldest
	if sb.Len(0) != 2 {
		t.Fatalf("len = %d, want 2", sb.Len(0))
	}
	if _, ok := sb.Lookup(0x100, 0); ok {
		t.Error("oldest entry should have been displaced")
	}
	if _, ok := sb.Lookup(0x110, 0); !ok {
		t.Error("newest entry missing")
	}
}

func TestStoreBufferExplicitDrain(t *testing.T) {
	sb := NewStoreBuffer(8, 100)
	sb.Insert(0x1, 1, 0, 0)
	sb.Insert(0x2, 2, 0, 0)
	sb.Drain()
	if sb.Len(0) != 0 {
		t.Error("drain left entries")
	}
}

func TestFillBufferSample(t *testing.T) {
	fb := NewFillBuffer(4)
	fb.Deposit(0x11)
	fb.Deposit(0x22)
	if got := fb.Sample(); got != 0x22 {
		t.Errorf("sample = %#x, want most recent", got)
	}
}

func TestFillBufferClearIsComplete(t *testing.T) {
	fb := NewFillBuffer(6)
	for i := 0; i < 10; i++ {
		fb.Deposit(uint64(0x1000 + i))
	}
	fb.Clear()
	for i := 0; i < fb.Size(); i++ {
		if fb.SampleAt(i) != 0 {
			t.Fatalf("slot %d survived VERW clear", i)
		}
	}
	if fb.Clears != 1 {
		t.Errorf("clears = %d", fb.Clears)
	}
}

func TestFillBufferWrapsRing(t *testing.T) {
	fb := NewFillBuffer(3)
	for i := 1; i <= 7; i++ {
		fb.Deposit(uint64(i))
	}
	if fb.Sample() != 7 {
		t.Errorf("sample = %d, want 7", fb.Sample())
	}
}

// Property: Insert then Lookup at the same address always forwards the
// inserted value (until aged out).
func TestStoreBufferInsertLookupProperty(t *testing.T) {
	f := func(addr, val uint64) bool {
		sb := NewStoreBuffer(16, 8)
		sb.Insert(addr, val, ^val, 0)
		e, ok := sb.Lookup(addr, 0)
		return ok && e.Value == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after Clear, every slot samples zero regardless of deposits.
func TestFillBufferClearProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		fb := NewFillBuffer(12)
		for _, v := range vals {
			fb.Deposit(v)
		}
		fb.Clear()
		return fb.Sample() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreBufferPrevValue(t *testing.T) {
	// Prev carries what a bypassing load would transiently observe: the
	// overwritten memory value, chained through successive stores.
	sb := NewStoreBuffer(8, 8)
	sb.Insert(0x100, 10, 99, 0) // overwrote 99
	e, ok := sb.Lookup(0x100, 0)
	if !ok || e.Prev != 99 {
		t.Fatalf("prev = %d/%v, want 99", e.Prev, ok)
	}
	sb.Insert(0x100, 20, 10, 0) // the second store overwrote the first's value
	e, _ = sb.Lookup(0x100, 0)
	if e.Value != 20 || e.Prev != 10 {
		t.Errorf("youngest entry = %+v", e)
	}
	if sb.DrainAge() != 8 {
		t.Errorf("drain age accessor = %d", sb.DrainAge())
	}
}
