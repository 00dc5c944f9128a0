// Package buffers models the microarchitectural buffers behind two attack
// families:
//
//   - The store buffer, whose store-to-load forwarding can be
//     speculatively bypassed (Speculative Store Bypass) and whose
//     mitigation, SSBD, disables the bypass at a forwarding-stall cost.
//
//   - The fill buffers / load ports, whose stale contents leak under
//     Microarchitectural Data Sampling (MDS) and are cleared by the
//     microcode-extended VERW instruction.
package buffers

// StoreEntry is one in-flight store.
type StoreEntry struct {
	Addr  uint64 // 8-byte-aligned effective physical address
	Value uint64
	// Prev is the memory value the store overwrote. A load that
	// speculatively bypasses this store (Speculative Store Bypass)
	// transiently observes Prev instead of Value.
	Prev uint64
	Age  int // instructions retired since issue (set by Lookup); drains at DrainAge

	issued uint64 // the core's retire count at Insert
}

// StoreBuffer holds in-flight stores awaiting retirement. While an entry
// is young (Age < bypass window), a dependent load's address
// disambiguation may not have completed, which is the Speculative Store
// Bypass window.
//
// Aging is by timestamp: the caller passes its retire count (now) to
// every method, an entry's age is now minus the count at its Insert, and
// entries that reached DrainAge leave from the head of the ring at the
// next Lookup or Len. Stamps grow in insertion order, so drained entries
// are always the oldest.
type StoreBuffer struct {
	ring     []StoreEntry // fixed at capacity; live entries start at head
	head, n  int
	drainAge uint64

	// Forwards counts store-to-load forwarding events (for tests and
	// SSBD cost accounting).
	Forwards uint64
}

// NewStoreBuffer returns a store buffer with the given capacity and the
// number of retired instructions after which an entry drains to memory.
func NewStoreBuffer(capacity, drainAge int) *StoreBuffer {
	if capacity <= 0 {
		capacity = 42
	}
	if drainAge <= 0 {
		drainAge = 8
	}
	return &StoreBuffer{ring: make([]StoreEntry, capacity), drainAge: uint64(drainAge)}
}

// expire drops the entries that have drained by retire count now.
func (s *StoreBuffer) expire(now uint64) {
	for s.n > 0 && now-s.ring[s.head].issued >= s.drainAge {
		s.head++
		if s.head == len(s.ring) {
			s.head = 0
		}
		s.n--
	}
}

// Insert records a store issued at retire count now. The memory write
// itself is performed by the core; the buffer only tracks forwarding
// state. prev is the memory value being overwritten (the value a
// bypassing load would observe). A full ring displaces its oldest
// entry: either a live one, as a full buffer must, or a drained one
// that had not been dropped yet.
func (s *StoreBuffer) Insert(addr, value, prev, now uint64) {
	if s.n == len(s.ring) {
		s.head++
		if s.head == len(s.ring) {
			s.head = 0
		}
		s.n--
	}
	i := s.head + s.n
	if i >= len(s.ring) {
		i -= len(s.ring)
	}
	s.ring[i] = StoreEntry{Addr: addr, Value: value, Prev: prev, issued: now}
	s.n++
}

// Lookup returns the youngest store to addr still in flight at retire
// count now, with its Age set. ok=true means a subsequent load would be
// satisfied by forwarding.
func (s *StoreBuffer) Lookup(addr, now uint64) (StoreEntry, bool) {
	s.expire(now)
	for k := s.n - 1; k >= 0; k-- {
		i := s.head + k
		if i >= len(s.ring) {
			i -= len(s.ring)
		}
		if s.ring[i].Addr == addr {
			s.Forwards++
			e := s.ring[i]
			e.Age = int(now - e.issued)
			return e, true
		}
	}
	return StoreEntry{}, false
}

// Drain empties the buffer (sfence / serialising events).
func (s *StoreBuffer) Drain() { s.head, s.n = 0, 0 }

// Reset returns the buffer to its freshly constructed state, reusing
// the ring (host-side recycling; no simulated event).
func (s *StoreBuffer) Reset() {
	s.Drain()
	s.Forwards = 0
}

// Len returns the number of stores still in flight at retire count now.
func (s *StoreBuffer) Len(now uint64) int {
	s.expire(now)
	return s.n
}

// DrainAge exposes the configured drain age (the SSB window length).
func (s *StoreBuffer) DrainAge() int { return int(s.drainAge) }

// FillBuffer models the line-fill buffers and load ports that MDS-class
// attacks sample. Every load or store that moves data through the core
// deposits its value here; on MDS-vulnerable parts a faulting load can
// transiently observe a stale slot belonging to another privilege domain
// or the sibling hyperthread.
type FillBuffer struct {
	slots []uint64
	pos   int

	// Clears counts VERW-style clears (for mitigation accounting).
	Clears uint64
}

// NewFillBuffer returns a fill buffer with n slots (12 LFBs on Skylake).
func NewFillBuffer(n int) *FillBuffer {
	if n <= 0 {
		n = 12
	}
	return &FillBuffer{slots: make([]uint64, n)}
}

// Deposit records a value moving through the buffers.
func (f *FillBuffer) Deposit(v uint64) {
	f.slots[f.pos] = v
	f.pos++
	if f.pos == len(f.slots) {
		f.pos = 0
	}
}

// Sample returns the most recently deposited value — what a faulting
// load transiently observes on an MDS-vulnerable part.
func (f *FillBuffer) Sample() uint64 {
	idx := f.pos - 1
	if idx < 0 {
		idx = len(f.slots) - 1
	}
	return f.slots[idx]
}

// SampleAt returns slot i mod size (different MDS variants sample
// different ports; tests use this to check clearing is complete).
func (f *FillBuffer) SampleAt(i int) uint64 {
	return f.slots[i%len(f.slots)]
}

// Clear zeroes every slot — the VERW microcode behaviour.
func (f *FillBuffer) Clear() {
	f.Clears++
	for i := range f.slots {
		f.slots[i] = 0
	}
}

// Size returns the slot count.
func (f *FillBuffer) Size() int { return len(f.slots) }

// Reset returns the buffer to its freshly constructed state: all slots
// zeroed — a recycled core must not leak a previous cell's values
// through the MDS sampling channel — with position and the clear
// counter back to zero. Unlike Clear it does not count as a VERW.
func (f *FillBuffer) Reset() {
	for i := range f.slots {
		f.slots[i] = 0
	}
	f.pos = 0
	f.Clears = 0
}
