package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spectrebench/internal/simscope"
)

// canonKey canonicalises test keys: any Config with a "v=" prefix
// folds to the part before the first comma, so "v=1,extra" and "v=1"
// are one equivalence class. Other keys stand for themselves.
func canonKey(k Key) Key {
	if rest, ok := strings.CutPrefix(k.Config, "v="); ok {
		k.Config = "v=" + strings.SplitN(rest, ",", 2)[0]
	}
	return k
}

// foldSlots is the size of each of internFold's slot spaces.
const foldSlots = 1 << 12

// internFold is canonKey as an engine Canonicalizer: it knows every key
// with a "v=" Config and names display keys and classes by slot,
// interned in first-fold order. Other keys are outside its set.
type internFold struct {
	mu                sync.Mutex
	displays, classes map[Key]int32
}

// foldConfig returns a fresh interning canonicalizer over canonKey.
func foldConfig() *internFold {
	return &internFold{displays: map[Key]int32{}, classes: map[Key]int32{}}
}

func (f *internFold) Slots() (displays, classes int) { return foldSlots, foldSlots }

func (f *internFold) Fold(k Key) (Key, int32, int32, bool) {
	if !strings.HasPrefix(k.Config, "v=") {
		return k, 0, 0, false
	}
	canon := canonKey(k)
	f.mu.Lock()
	defer f.mu.Unlock()
	return canon, intern(f.displays, k), intern(f.classes, canon), true
}

// intern returns k's slot in m, numbering a new key after the others.
func intern(m map[Key]int32, k Key) int32 {
	s, ok := m[k]
	if !ok {
		if len(m) == foldSlots {
			panic("internFold: slot space full")
		}
		s = int32(len(m))
		m[k] = s
	}
	return s
}

// TestDedupFoldsEquivalenceClasses: display keys with equal canonical
// keys share one execution, every submitter sees the class result, and
// the stats ledger adds up (misses = first sights, classHits = folds).
func TestDedupFoldsEquivalenceClasses(t *testing.T) {
	e := New(2)
	defer e.Close()
	e.SetCanonicalizer(foldConfig())

	var runs atomic.Int64
	fn := func() (any, error) {
		runs.Add(1)
		return simscope.Current().FaultSeed, nil
	}
	// Three display keys, two classes: v=1 and v=1,extra fold together.
	keys := []Key{
		{Workload: "w", Uarch: "u", Config: "v=1"},
		{Workload: "w", Uarch: "u", Config: "v=1,extra"},
		{Workload: "w", Uarch: "u", Config: "v=2"},
	}
	var tasks []*Task
	for _, k := range keys {
		tasks = append(tasks, e.Submit(k, fn))
	}
	var vals []uint64
	for i, tk := range tasks {
		v, err := tk.Wait()
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		vals = append(vals, v.(uint64))
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("ran %d simulations, want 2 (one per class)", got)
	}
	if vals[0] != vals[1] {
		t.Errorf("same-class cells saw different values: %d vs %d", vals[0], vals[1])
	}
	if vals[0] == vals[2] {
		t.Errorf("different classes aliased to one value")
	}
	// Scope seeds are canonical: the folded cell's seed is its CLASS
	// key's hash, not its display key's.
	if want := canonKey(keys[1]).Hash(); vals[1] != want {
		t.Errorf("folded cell seed = %d, want canonical hash %d", vals[1], want)
	}
	d := e.StatsDetail()
	if d.Misses != 3 || d.ClassHits != 1 || d.Classes != 2 || d.Simulated != 2 {
		t.Errorf("detail = %+v, want misses=3 classHits=1 classes=2 simulated=2", d)
	}
	// Re-submitting any display key is a plain memo hit.
	if _, err := e.Submit(keys[1], fn).Wait(); err != nil {
		t.Fatal(err)
	}
	if d := e.StatsDetail(); d.Hits != 1 {
		t.Errorf("hits = %d after resubmit, want 1", d.Hits)
	}
}

// TestDedupOffKeepsCanonicalSeeds: in the no-dedup reference mode
// every display key runs its own simulation, but fault seeds still
// derive from the canonical key — the property that makes folding a
// class onto one simulation output-identical rather than a behaviour
// change.
func TestDedupOffKeepsCanonicalSeeds(t *testing.T) {
	e := New(2)
	defer e.Close()
	e.noDedup = true
	e.SetCanonicalizer(foldConfig())

	var runs atomic.Int64
	fn := func() (any, error) {
		runs.Add(1)
		return simscope.Current().FaultSeed, nil
	}
	a, err := e.Submit(Key{Workload: "w", Uarch: "u", Config: "v=1"}, fn).Wait()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Submit(Key{Workload: "w", Uarch: "u", Config: "v=1,extra"}, fn).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("ran %d simulations, want 2 (dedup off)", got)
	}
	if a.(uint64) != b.(uint64) {
		t.Errorf("same-class cells drew different fault seeds with dedup off: %d vs %d", a, b)
	}
	if d := e.StatsDetail(); d.ClassHits != 0 || d.Simulated != 2 {
		t.Errorf("detail = %+v, want classHits=0 simulated=2", d)
	}
}

// TestDedupErrorsPropagateToFollowers: a failing class execution fails
// every folded submitter with the same (deterministic) error.
func TestDedupErrorsPropagateToFollowers(t *testing.T) {
	e := New(2)
	defer e.Close()
	e.SetCanonicalizer(foldConfig())
	fn := func() (any, error) { return nil, fmt.Errorf("deterministic failure") }
	t1 := e.Submit(Key{Workload: "w", Uarch: "u", Config: "v=9"}, fn)
	t2 := e.Submit(Key{Workload: "w", Uarch: "u", Config: "v=9,alias"}, fn)
	_, err1 := t1.Wait()
	_, err2 := t2.Wait()
	if err1 == nil || err2 == nil {
		t.Fatalf("errors = %v, %v; want both non-nil", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Errorf("class error %q != follower error %q", err1, err2)
	}
}

// TestNestedWaitsHelp: a Wait issued from inside a cell must be able to
// help with the pending cells — at -jobs 1 the only worker is the
// waiter, and a cell it cannot reach deadlocks the pool. Interdependent
// cells must complete with the same values at every worker count.
func TestNestedWaitsHelp(t *testing.T) {
	run := func(t *testing.T, e *Engine) map[int]uint64 {
		t.Helper()
		defer e.Close()
		out := map[int]uint64{}
		var tasks []*Task
		for i := 0; i < 32; i++ {
			i := i
			k := Key{Workload: fmt.Sprintf("w%d", i%4), Uarch: fmt.Sprintf("u%d", i%2), Config: fmt.Sprintf("c%d", i)}
			tasks = append(tasks, e.Submit(k, func() (any, error) {
				if i%5 == 0 {
					// A cell that waits on another cell: exercises
					// helping from inside a cell.
					sub := Key{Workload: "sub", Uarch: "u", Config: fmt.Sprintf("s%d", i)}
					if _, err := e.Submit(sub, func() (any, error) { return uint64(i), nil }).Wait(); err != nil {
						return nil, err
					}
				}
				return uint64(i) * 3, nil
			}))
		}
		for i, tk := range tasks {
			v, err := tk.Wait()
			if err != nil {
				t.Fatalf("cell %d: %v", i, err)
			}
			out[i] = v.(uint64)
		}
		return out
	}

	serial := run(t, New(1))
	parallel := run(t, New(4))
	for i := 0; i < 32; i++ {
		if want := uint64(i) * 3; serial[i] != want || parallel[i] != want {
			t.Errorf("cell %d: jobs=1 %d, jobs=4 %d, want %d", i, serial[i], parallel[i], want)
		}
	}
}

// TestFoldedKeysShareClassTask: every display key of a class is
// memoized to the class's own task — folded within one batch, across
// batches while the class is still pending, and after it finished —
// whether the class simulates (cold second level) or replays (warm).
func TestFoldedKeysShareClassTask(t *testing.T) {
	const classes, aliases = 4, 4
	alias := func(c, a int) Key {
		return Key{Workload: "w", Uarch: "u", Config: fmt.Sprintf("v=%d,alias=%d", c, a)}
	}
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			e := New(2)
			defer e.Close()
			e.SetCanonicalizer(foldConfig())
			sl := newFakeSecond()
			if warm {
				for c := 0; c < classes; c++ {
					sl.Put(canonKey(alias(c, 0)), float64(c), 1)
				}
			}
			e.SetSecondLevel(sl)
			release := make(chan struct{})
			var runs atomic.Int64
			batch := func(a ...int) [][]*Task {
				var cells []BatchCell
				for c := 0; c < classes; c++ {
					for _, ai := range a {
						cells = append(cells, BatchCell{Key: alias(c, ai), Fn: func() (any, error) {
							runs.Add(1)
							<-release
							return float64(c), nil
						}})
					}
				}
				out := make([][]*Task, classes)
				for i, tk := range e.SubmitBatch(cells) {
					out[i/len(a)] = append(out[i/len(a)], tk)
				}
				return out
			}
			// Aliases 0 and 1 fold within one batch; alias 2 folds in a
			// later batch while the class cannot have finished cold.
			got := batch(0, 1)
			for c, ts := range batch(2) {
				got[c] = append(got[c], ts...)
			}
			close(release)
			for c := range got {
				if _, err := waitWithDeadline(t, got[c][0]); err != nil {
					t.Fatal(err)
				}
			}
			// Alias 3 folds once the class has finished, through Submit.
			for c := range got {
				got[c] = append(got[c], e.Submit(alias(c, 3), nil))
			}
			for c, ts := range got {
				for a, tk := range ts {
					if tk != ts[0] {
						t.Errorf("class %d: alias %d has its own task, want the class task", c, a)
					}
				}
				if v, err := ts[0].Wait(); err != nil || v != float64(c) {
					t.Errorf("class %d: (%v, %v), want %d", c, v, err, c)
				}
			}
			want := int64(classes)
			if warm {
				want = 0
			}
			if got := runs.Load(); got != want {
				t.Errorf("ran %d simulations, want %d", got, want)
			}
			if d := e.StatsDetail(); d.ClassHits != classes*(aliases-1) || d.Classes != classes {
				t.Errorf("detail = %+v, want %d class hits over %d classes", d, classes*(aliases-1), classes)
			}
		})
	}
}
