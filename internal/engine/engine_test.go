package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"spectrebench/internal/simscope"
)

func TestSubmitMemoizes(t *testing.T) {
	e := New(2)
	defer e.Close()
	var runs atomic.Int64
	key := Key{Workload: "w", Uarch: "u", Config: "c", Seed: 1}
	fn := func() (any, error) {
		runs.Add(1)
		return 42, nil
	}
	t1 := e.Submit(key, fn)
	t2 := e.Submit(key, fn)
	if t1 != t2 {
		t.Fatal("equal keys should share one task")
	}
	v, err := t1.Wait(nil)
	if err != nil || v.(int) != 42 {
		t.Fatalf("Wait = %v, %v", v, err)
	}
	if _, err := t2.Wait(nil); err != nil {
		t.Fatalf("second Wait errored: %v", err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("cell ran %d times, want 1", got)
	}
	hits, misses := e.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

func TestDistinctKeysDoNotAlias(t *testing.T) {
	e := New(2)
	defer e.Close()
	// Keys that a sloppy concatenation hash would collide.
	keys := []Key{
		{Workload: "ab", Uarch: "c", Config: "x", Seed: 0},
		{Workload: "a", Uarch: "bc", Config: "x", Seed: 0},
		{Workload: "a", Uarch: "b", Config: "cx", Seed: 0},
		{Workload: "ab", Uarch: "c", Config: "x", Seed: 1},
	}
	var tasks []*Task
	for i, k := range keys {
		i := i
		tasks = append(tasks, e.Submit(k, func() (any, error) { return i, nil }))
	}
	for i, tk := range tasks {
		v, err := tk.Wait(nil)
		if err != nil || v.(int) != i {
			t.Fatalf("key %d: got %v, %v; want %d", i, v, err, i)
		}
	}
	if hits, misses := e.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("stats = %d hits, %d misses; want 0, 4", hits, misses)
	}
}

func TestKeyHashSeparatesFields(t *testing.T) {
	// The hash only seeds fault streams (correctness never depends on
	// it), but field boundaries should still be respected so adjacent
	// cells get decorrelated weather.
	seen := map[uint64]Key{}
	for _, k := range []Key{
		{Workload: "ab", Uarch: "c"},
		{Workload: "a", Uarch: "bc"},
		{Workload: "abc"},
		{Config: "abc"},
		{Workload: "ab", Uarch: "c", Seed: 7},
	} {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %v and %v", prev, k)
		}
		seen[h] = k
	}
}

func TestErrorsAreCached(t *testing.T) {
	e := New(1)
	defer e.Close()
	var runs atomic.Int64
	boom := errors.New("boom")
	key := Key{Workload: "failing"}
	fn := func() (any, error) { runs.Add(1); return nil, boom }
	if _, err := e.Submit(key, fn).Wait(nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := e.Submit(key, fn).Wait(nil); !errors.Is(err, boom) {
		t.Fatalf("cached err = %v, want boom", err)
	}
	if runs.Load() != 1 {
		t.Fatalf("failing cell ran %d times, want 1", runs.Load())
	}
}

func TestPanicBecomesDeterministicError(t *testing.T) {
	e := New(2)
	defer e.Close()
	key := Key{Workload: "panicky"}
	task := e.Submit(key, func() (any, error) { panic("kaboom") })
	_, err := task.Wait(nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Value != "kaboom" || pe.Stack == "" {
		t.Fatalf("PanicError = %+v", pe)
	}
	want := "cell panicky///seed=0: panic: kaboom"
	if pe.Error() != want {
		t.Fatalf("Error() = %q, want %q", pe.Error(), want)
	}
}

func TestCellScopeSeedIsKeyHash(t *testing.T) {
	e := New(1)
	defer e.Close()
	key := Key{Workload: "scoped", Uarch: "u"}
	v, err := e.Submit(key, func() (any, error) {
		sc := simscope.Current()
		if sc == nil {
			return nil, errors.New("no scope inside cell")
		}
		return sc.FaultSeed, nil
	}).Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.(uint64) != key.Hash() {
		t.Fatalf("cell FaultSeed = %d, want key hash %d", v, key.Hash())
	}
}

func TestUnkeyedTaskSharesSubmitterScope(t *testing.T) {
	e := New(2)
	defer e.Close()
	sc := &simscope.Scope{FaultSeed: 99}
	restore := simscope.Enter(sc)
	task := e.Go("probe", func() (any, error) { return simscope.Current(), nil })
	restore()
	v, err := task.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*simscope.Scope) != sc {
		t.Fatal("unkeyed task did not inherit the submitter's scope")
	}
}

func TestWaitChargesCellCyclesToWaiterScope(t *testing.T) {
	e := New(1)
	defer e.Close()
	key := Key{Workload: "costly"}
	task := e.Submit(key, func() (any, error) {
		simscope.Current().AddCycles(1234)
		return nil, nil
	})
	waiter := &simscope.Scope{}
	if _, err := task.Wait(waiter); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Wait(waiter); err != nil { // second Wait charges again
		t.Fatal(err)
	}
	if got := waiter.Cycles(); got != 2468 {
		t.Fatalf("waiter charged %d cycles, want 2468", got)
	}
}

// TestHelpingJoin saturates a 1-worker pool with a task that waits on
// subtasks; without worker helping this deadlocks.
func TestHelpingJoin(t *testing.T) {
	e := New(1)
	defer e.Close()
	outer := e.Go("outer", func() (any, error) {
		sum := 0
		var subs []*Task
		for i := 0; i < 8; i++ {
			i := i
			subs = append(subs, e.Submit(Key{Workload: "sub", Seed: uint64(i)},
				func() (any, error) { return i, nil }))
		}
		for _, s := range subs {
			v, err := s.Wait(nil)
			if err != nil {
				return nil, err
			}
			sum += v.(int)
		}
		return sum, nil
	})
	v, err := outer.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 28 {
		t.Fatalf("sum = %v, want 28", v)
	}
}

// TestParallelMatchesSerial runs the same task graph at 1 and 8 workers
// and requires identical gathered results and cache stats.
func TestParallelMatchesSerial(t *testing.T) {
	gather := func(jobs int) (string, uint64, uint64) {
		e := New(jobs)
		defer e.Close()
		var tasks []*Task
		for round := 0; round < 3; round++ { // repeats exercise the cache
			for i := 0; i < 16; i++ {
				i := i
				tasks = append(tasks, e.Submit(Key{Workload: "cell", Seed: uint64(i)},
					func() (any, error) {
						if i%5 == 4 {
							return nil, fmt.Errorf("cell %d failed", i)
						}
						return i * i, nil
					}))
			}
		}
		out := ""
		for _, tk := range tasks {
			v, err := tk.Wait(nil)
			if err != nil {
				out += fmt.Sprintf("err:%v;", err)
			} else {
				out += fmt.Sprintf("ok:%v;", v)
			}
		}
		h, m := e.Stats()
		return out, h, m
	}
	s1, h1, m1 := gather(1)
	s8, h8, m8 := gather(8)
	if s1 != s8 {
		t.Fatalf("results differ between 1 and 8 workers:\n%s\nvs\n%s", s1, s8)
	}
	if h1 != h8 || m1 != m8 {
		t.Fatalf("cache stats differ: %d/%d vs %d/%d", h1, m1, h8, m8)
	}
	if m1 != 16 || h1 != 32 {
		t.Fatalf("stats = %d hits, %d misses; want 32, 16", h1, m1)
	}
}
