package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"spectrebench/internal/gls"
	"spectrebench/internal/simscope"
)

// finishedCell submits one keyed cell that charges cycles to its own
// scope and waits for it, so the returned task is done.
func finishedCell(t *testing.T, e *Engine, key Key, cycles uint64) *Task {
	t.Helper()
	task := e.Submit(key, func() (any, error) {
		simscope.Current().AddCycles(cycles)
		return key.Workload, nil
	})
	if _, err := task.Wait(nil); err != nil {
		t.Fatal(err)
	}
	return task
}

// TestWaitChargesNamedScopePerCall: every Wait on a finished keyed task
// charges the scope it names exactly the cell's cycles, and only that
// scope — not the one bound to the waiting goroutine.
func TestWaitChargesNamedScopePerCall(t *testing.T) {
	e := New(1)
	defer e.Close()
	task := finishedCell(t, e, Key{Workload: "named"}, 700)
	bound := &simscope.Scope{}
	restore := simscope.Enter(bound)
	defer restore()
	sc := &simscope.Scope{}
	for call := uint64(1); call <= 3; call++ {
		if _, err := task.Wait(sc); err != nil {
			t.Fatal(err)
		}
		if got := sc.Cycles(); got != call*700 {
			t.Fatalf("after %d waits the scope was charged %d cycles, want %d", call, got, call*700)
		}
	}
	if got := bound.Cycles(); got != 0 {
		t.Fatalf("the goroutine's bound scope was charged %d cycles, want 0", got)
	}
}

// TestWaitChargesEveryWaitingScope: two scopes waiting on one task are
// each charged the full cell, as if each had simulated it.
func TestWaitChargesEveryWaitingScope(t *testing.T) {
	e := New(1)
	defer e.Close()
	task := finishedCell(t, e, Key{Workload: "shared"}, 500)
	a, b := &simscope.Scope{}, &simscope.Scope{}
	for _, sc := range []*simscope.Scope{a, b} {
		if _, err := task.Wait(sc); err != nil {
			t.Fatal(err)
		}
	}
	if a.Cycles() != 500 || b.Cycles() != 500 {
		t.Fatalf("scopes charged %d and %d cycles, want 500 each", a.Cycles(), b.Cycles())
	}
}

// TestWaitNilScopeChargesNothing: a nil scope is charged nothing and
// does not panic, whether the task is keyed or not.
func TestWaitNilScopeChargesNothing(t *testing.T) {
	e := New(1)
	defer e.Close()
	bound := &simscope.Scope{}
	restore := simscope.Enter(bound)
	defer restore()
	task := finishedCell(t, e, Key{Workload: "nil"}, 300)
	v, err := task.Wait(nil)
	if err != nil || v != "nil" {
		t.Fatalf("Wait(nil) = %v, %v", v, err)
	}
	if _, err := e.Go("unkeyed", func() (any, error) { return nil, nil }).Wait(nil); err != nil {
		t.Fatal(err)
	}
	if got := bound.Cycles(); got != 0 {
		t.Fatalf("the goroutine's bound scope was charged %d cycles, want 0", got)
	}
}

// TestWaitGChargesBoundScope: WaitG charges the scope bound to the
// goroutine ID it is given, over the same wait path as Wait.
func TestWaitGChargesBoundScope(t *testing.T) {
	e := New(1)
	defer e.Close()
	task := finishedCell(t, e, Key{Workload: "bound"}, 200)
	bound := &simscope.Scope{}
	restore := simscope.Enter(bound)
	defer restore()
	if _, err := task.WaitG(gls.ID()); err != nil {
		t.Fatal(err)
	}
	if got := bound.Cycles(); got != 200 {
		t.Fatalf("bound scope charged %d cycles, want 200", got)
	}
}

// TestWaitOnFinishedTaskParsesNoStack counts goroutine-ID resolutions:
// waits on finished tasks, keyed or not, must resolve none, and a wait
// on a pending task resolves one, to learn whether it should help.
func TestWaitOnFinishedTaskParsesNoStack(t *testing.T) {
	e := New(1)
	defer e.Close()
	var tasks []*Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, finishedCell(t, e, Key{Workload: "parse", Seed: uint64(i)}, 10))
	}
	unkeyed := e.Go("unkeyed", func() (any, error) { return nil, nil })
	if _, err := unkeyed.Wait(nil); err != nil {
		t.Fatal(err)
	}

	// Count only this goroutine's parses: workers of earlier tests'
	// engines are not this test's business.
	self := gls.ID()
	var parses atomic.Int64
	defer func(orig func() uint64) { goroutineID = orig }(goroutineID)
	goroutineID = func() uint64 {
		id := gls.ID()
		if id == self {
			parses.Add(1)
		}
		return id
	}
	sc := &simscope.Scope{}
	for round := 0; round < 3; round++ {
		for _, task := range append(tasks, unkeyed) {
			if _, err := task.Wait(sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := parses.Load(); n != 0 {
		t.Fatalf("waits on finished tasks parsed %d goroutine stacks, want 0", n)
	}
	if got := sc.Cycles(); got != 3*8*10 {
		t.Fatalf("scope charged %d cycles, want %d", got, 3*8*10)
	}

	release := make(chan struct{})
	pending := e.Submit(Key{Workload: "pending"}, func() (any, error) {
		<-release
		return nil, nil
	})
	before := parses.Load()
	go close(release)
	if _, err := pending.Wait(sc); err != nil {
		t.Fatal(err)
	}
	if n := parses.Load() - before; n > 1 {
		t.Fatalf("a wait on a pending task parsed %d goroutine stacks, want at most 1", n)
	}
}

// TestConcurrentWaitsFromManyScopes: many goroutines, each with its own
// scope, wait on the same cells while some are still running; every
// scope is charged exactly the sum of the cells' cycles.
func TestConcurrentWaitsFromManyScopes(t *testing.T) {
	const cells, waiters = 16, 12
	e := New(4)
	defer e.Close()
	release := make(chan struct{})
	var tasks []*Task
	var want uint64
	for i := 0; i < cells; i++ {
		cycles := uint64(100 + i)
		want += cycles
		tasks = append(tasks, e.Submit(Key{Workload: fmt.Sprintf("c%d", i)}, func() (any, error) {
			if cycles%2 == 0 {
				<-release
			}
			simscope.Current().AddCycles(cycles)
			return cycles, nil
		}))
	}
	scopes := make([]*simscope.Scope, waiters)
	var wg sync.WaitGroup
	for w := range scopes {
		sc := &simscope.Scope{}
		scopes[w] = sc
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range tasks {
				task := tasks[(i+w)%cells]
				v, err := task.Wait(sc)
				if err != nil {
					t.Error(err)
					return
				}
				if v.(uint64) != uint64(100+(i+w)%cells) {
					t.Errorf("waiter %d: cell %d = %v", w, (i+w)%cells, v)
				}
			}
		}(w)
	}
	close(release)
	wg.Wait()
	for w, sc := range scopes {
		if got := sc.Cycles(); got != want {
			t.Errorf("waiter %d charged %d cycles, want %d", w, got, want)
		}
	}
}
