package faultinject

import (
	"testing"

	"spectrebench/internal/simscope"
)

func TestDeterministicStreams(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 10000; i++ {
		p := Point(i % int(numPoints))
		if a.Fire(p) != b.Fire(p) {
			t.Fatalf("streams diverged at consultation %d", i)
		}
	}
	c := New(43)
	diff := 0
	for i := 0; i < 10000; i++ {
		if a.Fire(ProbeJitter) != c.Fire(ProbeJitter) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical firing sequences")
	}
}

func TestRates(t *testing.T) {
	sc := &simscope.Scope{FaultSeed: 7, Fault: NewActivation(Config{Rates: map[Point]float64{
		CacheEvict:   0,
		SyscallEINTR: 1,
	}})}
	in := FromActiveScope(sc, "test")
	for i := 0; i < 1000; i++ {
		if in.Fire(CacheEvict) {
			t.Fatal("rate-0 point fired")
		}
		if !in.Fire(SyscallEINTR) {
			t.Fatal("rate-1 point did not fire")
		}
	}
	if in.Checks(CacheEvict) != 1000 || in.Fired(SyscallEINTR) != 1000 {
		t.Errorf("counter mismatch: checks=%d fired=%d",
			in.Checks(CacheEvict), in.Fired(SyscallEINTR))
	}
	if p, ok := sc.LastFired(); !ok || Point(p) != SyscallEINTR {
		t.Errorf("LastFired = %v, %v; want syscall-eintr, true", p, ok)
	}
}

func TestActivationReproducible(t *testing.T) {
	run := func() []bool {
		sc := &simscope.Scope{FaultSeed: 99, Fault: NewActivation(Config{})}
		var out []bool
		for c := 0; c < 3; c++ { // three "cores", like one experiment
			in := FromActiveScope(sc, "Broadwell")
			for i := 0; i < 5000; i++ {
				out = append(out, in.Fire(CacheEvict))
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("re-derivation diverged at draw %d", i)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var in *Injector
	if in.Fire(CacheEvict) {
		t.Error("nil injector fired")
	}
	if in.Amount(ProbeJitter, 8) != 0 {
		t.Error("nil injector produced a nonzero amount")
	}
	if in.Fired(CacheEvict) != 0 || in.Checks(CacheEvict) != 0 {
		t.Error("nil injector has counters")
	}
	in.Reseed(1) // must not panic
	if FromActiveScope(nil, "x") != nil {
		t.Error("FromActiveScope returned an injector without a scope")
	}
	if FromActiveScope(&simscope.Scope{FaultSeed: 1}, "x") != nil {
		t.Error("FromActiveScope returned an injector for a scope without an activation")
	}
}

func TestAmountBounds(t *testing.T) {
	in := New(5)
	for i := 0; i < 1000; i++ {
		v := in.Amount(ProbeJitter, 8)
		if v < 1 || v > 8 {
			t.Fatalf("Amount out of [1,8]: %d", v)
		}
	}
}

func TestPointStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Points() {
		s := p.String()
		if s == "" || seen[s] {
			t.Errorf("point %d has empty or duplicate name %q", p, s)
		}
		seen[s] = true
	}
}
