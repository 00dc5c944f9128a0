// Package faultinject provides deterministic, seedable fault injection
// for the simulated machine. The CPU core, kernel and hypervisor consult
// an Injector at named fault points — spurious cache-line evictions, TLB
// shootdown glitches, delayed fill-buffer drains, interrupted syscalls
// and probe-timing jitter — so every experiment can be re-run under
// adversarial microarchitectural weather and must either converge to the
// same result or return a structured error.
//
// Determinism is the contract: an Injector is a pure xorshift PRNG
// seeded from (scope fault seed, per-core salt, per-scope creation
// sequence). No wall-clock or math/rand state is ever consulted, so two
// runs with the same seed fire exactly the same faults at exactly the
// same points. Derivation is keyed entirely by the simscope.Scope the
// core is constructed under — the simulation-cell identity — so the
// streams a cell sees do not depend on which other cells ran first or
// on which worker ran them.
//
// The package has two layers:
//
//   - An activation (NewActivation) carried in simscope.Scope.Fault.
//     Cores constructed under a scope holding one attach a derived
//     Injector; under any other scope, or none, cores carry a nil
//     Injector and every fault point is dead (all Injector methods are
//     nil-receiver safe, so call sites stay unconditional).
//   - The Injector itself, which can also be constructed directly with
//     New for tests and standalone tools.
package faultinject

import (
	"fmt"

	"spectrebench/internal/simscope"
)

// Point names one fault-injection site in the simulator.
type Point uint8

// Fault points consulted by the substrate.
const (
	// CacheEvict spuriously evicts the just-accessed line from the
	// cache hierarchy after an architectural load (cache pressure from
	// an imaginary SMT sibling or DMA agent).
	CacheEvict Point = iota
	// TLBGlitch drops a hitting TLB entry, forcing a re-walk — a
	// shootdown IPI arriving at the worst moment.
	TLBGlitch
	// FBDrainDelay stalls a fill-buffer drain (verw, VM entry) for
	// extra cycles: the microcode clear hitting a busy buffer.
	FBDrainDelay
	// SyscallEINTR interrupts a syscall before its handler runs; the
	// kernel transparently restarts it (SA_RESTART semantics), charging
	// the aborted entry/exit round trip.
	SyscallEINTR
	// ProbeJitter perturbs timestamp reads (rdtsc) by a few cycles —
	// the measurement noise a real machine's probes must absorb.
	ProbeJitter
	// StoreWrite fails a cell-store segment append partway through — the
	// short write a full or failing disk produces. The store must repair
	// its log tail, count the error, and degrade to a smaller cache; it
	// must never fail the run or perturb simulated state.
	StoreWrite

	numPoints
)

func (p Point) String() string {
	switch p {
	case CacheEvict:
		return "cache-evict"
	case TLBGlitch:
		return "tlb-glitch"
	case FBDrainDelay:
		return "fb-drain-delay"
	case SyscallEINTR:
		return "syscall-eintr"
	case ProbeJitter:
		return "probe-jitter"
	case StoreWrite:
		return "store-write"
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// Points returns every defined fault point (for documentation and CLI
// listings).
func Points() []Point {
	out := make([]Point, 0, numPoints)
	for p := Point(0); p < numPoints; p++ {
		out = append(out, p)
	}
	return out
}

// defaultRates are the per-consultation firing probabilities. They are
// tuned low enough that experiments still complete in CI time but high
// enough that a full `spectrebench run all` exercises every point.
var defaultRates = [numPoints]float64{
	CacheEvict:   1.0 / 2048,
	TLBGlitch:    1.0 / 4096,
	FBDrainDelay: 1.0 / 32,
	SyscallEINTR: 1.0 / 256,
	ProbeJitter:  1.0 / 16,
	StoreWrite:   1.0 / 64,
}

// Config describes one fault-injection activation. The injector streams'
// seeds come from the scopes that carry the activation, not from here.
type Config struct {
	// Rates overrides the default firing probability per point
	// (probability per consultation, in [0, 1]). Nil entries keep the
	// defaults.
	Rates map[Point]float64
}

// activation is the immutable per-point firing thresholds of one
// Config.
type activation struct {
	thresholds [numPoints]uint64
}

// threshold converts a probability to a compare threshold for a uniform
// 64-bit draw.
func threshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * float64(^uint64(0)))
}

// NewActivation builds an activation from cfg, returning an opaque
// handle for simscope.Scope.Fault. Every run that wants faults carries
// its own activation in its scopes, so two batches with different
// seeds or rates running side by side cannot interfere.
func NewActivation(cfg Config) any {
	a := &activation{}
	for p := Point(0); p < numPoints; p++ {
		rate := defaultRates[p]
		if r, ok := cfg.Rates[p]; ok {
			rate = r
		}
		a.thresholds[p] = threshold(rate)
	}
	return a
}

// Injector is a deterministic fault source for one core. It is not safe
// for concurrent use; each core owns its own instance.
type Injector struct {
	state      uint64
	thresholds [numPoints]uint64
	checks     [numPoints]uint64
	fired      [numPoints]uint64
	scope      *simscope.Scope // owning scope for fire attribution, or nil
}

// New returns a standalone Injector with the default rates. Intended for
// tests; simulator cores obtain theirs via FromActiveScope.
func New(seed uint64) *Injector {
	in := &Injector{state: mix(seed, 0x9e3779b97f4a7c15)}
	for p := Point(0); p < numPoints; p++ {
		in.thresholds[p] = threshold(defaultRates[p])
	}
	return in
}

// FromActiveScope derives an Injector for a core constructed under sc,
// or returns nil when sc is nil or carries no activation. The seed is
// the scope's FaultSeed, salt (typically the CPU model name) and the
// scope's own creation sequence decorrelate the streams of several
// cores within one cell, so a cell's injector streams are a pure
// function of the cell identity — the property the parallel engine
// needs for order-independent replay. Core construction resolves its
// scope once and passes it here, so pooled-core reinitialisation draws
// the same stream a fresh construction would.
func FromActiveScope(sc *simscope.Scope, salt string) *Injector {
	if sc == nil {
		return nil
	}
	a, _ := sc.Fault.(*activation)
	if a == nil {
		return nil
	}
	return &Injector{
		state:      mix(mix(sc.FaultSeed, hashString(salt)), sc.NextSeq()),
		thresholds: a.thresholds,
		scope:      sc,
	}
}

// Reseed restarts the injector's PRNG stream (the supervisor's
// per-retry "different weather, same storm intensity" knob).
func (in *Injector) Reseed(seed uint64) {
	if in == nil {
		return
	}
	in.state = mix(seed, 0x9e3779b97f4a7c15)
}

// Fire consults the injector at point p: it returns true when the fault
// fires this time. Nil-receiver safe (never fires).
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	in.checks[p]++
	if in.rand() >= in.thresholds[p] {
		return false
	}
	in.fired[p]++
	in.scope.NoteFired(uint8(p))
	return true
}

// Amount draws a deterministic magnitude in [1, max] for a fault that
// already fired (extra stall cycles, jitter width). Nil-receiver safe
// (returns 0).
func (in *Injector) Amount(p Point, max uint64) uint64 {
	if in == nil || max == 0 {
		return 0
	}
	return in.rand()%max + 1
}

// Fired returns how many times p has fired on this injector.
func (in *Injector) Fired(p Point) uint64 {
	if in == nil {
		return 0
	}
	return in.fired[p]
}

// Checks returns how many times p has been consulted on this injector.
func (in *Injector) Checks(p Point) uint64 {
	if in == nil {
		return 0
	}
	return in.checks[p]
}

// rand advances the xorshift64* PRNG.
func (in *Injector) rand() uint64 {
	x := in.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	in.state = x
	return x * 0x2545f4914f6cdd1d
}

// mix combines two words into a well-distributed, never-zero PRNG seed
// (splitmix64 finalizer).
func mix(a, b uint64) uint64 {
	z := a + b + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return z
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
