package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"spectrebench/internal/simscope"
)

// waitWithDeadline fails the test instead of deadlocking if t does not
// complete.
func waitWithDeadline(t *testing.T, task *Task) (any, error) {
	t.Helper()
	type outcome struct {
		val any
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := task.Wait(nil)
		ch <- outcome{v, err}
	}()
	select {
	case o := <-ch:
		return o.val, o.err
	case <-time.After(10 * time.Second):
		t.Fatalf("task %s: Wait did not return", task.describe())
		return nil, nil
	}
}

// TestSubmitAfterCloseReturnsErrClosed is the daemon-safety contract:
// a closed engine refuses work with a typed error — no panic, no
// deadlock — so an in-flight HTTP request racing shutdown degrades to
// a failed result instead of taking the process down.
func TestSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	e := New(2)
	if _, err := waitWithDeadline(t, e.Go("warmup", func() (any, error) { return 1, nil })); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	e.Close()
	e.Close() // idempotent

	_, err := waitWithDeadline(t, e.Submit(Key{Workload: "w"}, func() (any, error) { return 2, nil }))
	if !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: err=%v, want ErrClosed", err)
	}
	_, err = waitWithDeadline(t, e.Go("late", func() (any, error) { return 3, nil }))
	if !errors.Is(err, ErrClosed) {
		t.Errorf("Go after Close: err=%v, want ErrClosed", err)
	}
}

// TestSubmitRacingCloseNeverStrandsAWaiter hammers the Submit/Close
// race: every submitted task must complete — with its value or with
// ErrClosed — never hang.
func TestSubmitRacingCloseNeverStrandsAWaiter(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := New(4)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					task := e.Submit(Key{Workload: "race", Config: string(rune('a' + g)), Seed: uint64(i)},
						func() (any, error) { return i, nil })
					if _, err := task.Wait(nil); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}()
		}
		done := make(chan struct{})
		go func() {
			close(start)
			e.Close()
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("round %d: waiters stranded after Close", round)
		}
	}
}

// fakeSecond is an in-memory SecondLevel for hook tests that counts
// its GetBatch calls and Puts.
type fakeSecond struct {
	mu   sync.Mutex
	vals map[Key]struct {
		val    any
		cycles uint64
	}
	getBatches, puts int
}

func newFakeSecond() *fakeSecond {
	return &fakeSecond{vals: map[Key]struct {
		val    any
		cycles uint64
	}{}}
}

func (f *fakeSecond) GetBatch(keys []Key) []BatchGet {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.getBatches++
	out := make([]BatchGet, len(keys))
	for i, k := range keys {
		e, ok := f.vals[k]
		out[i] = BatchGet{Val: e.val, Cycles: e.cycles, OK: ok}
	}
	return out
}

func (f *fakeSecond) Put(key Key, val any, cycles uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.vals[key] = struct {
		val    any
		cycles uint64
	}{val, cycles}
}

// TestSecondLevelHitSkipsComputationAndReplaysCycles: a second-level
// hit must complete the cell without running fn, replay the persisted
// cycle cost to the waiter's scope, and still count as a first-level
// miss so rendered cache statistics do not depend on store warmth.
func TestSecondLevelHitSkipsComputationAndReplaysCycles(t *testing.T) {
	e := New(2)
	defer e.Close()
	sl := newFakeSecond()
	key := Key{Workload: "cached", Uarch: "u", Config: "c"}
	sl.Put(key, "stored-value", 12345)
	e.SetSecondLevel(sl)

	sc := &simscope.Scope{FaultSeed: 1}
	task := e.Submit(key, func() (any, error) {
		t.Error("fn ran despite a second-level hit")
		return nil, nil
	})
	val, err := task.Wait(sc)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if val != "stored-value" {
		t.Errorf("val=%v, want stored-value", val)
	}
	if got := sc.Cycles(); got != 12345 {
		t.Errorf("waiter scope charged %d cycles, want 12345 (persisted cost replayed)", got)
	}
	hits, misses := e.Stats()
	if hits != 0 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 0/1 (store hit still a first-level miss)", hits, misses)
	}
}

// TestSecondLevelCapturesCompletedCells: a computed cell is published
// to the second level with its simulated-cycle cost, and a later
// Submit on a fresh engine is served from it.
func TestSecondLevelCapturesCompletedCells(t *testing.T) {
	sl := newFakeSecond()
	key := Key{Workload: "computed", Uarch: "u", Config: "c"}

	e1 := New(2)
	e1.SetSecondLevel(sl)
	val, err := waitWithDeadline(t, e1.Submit(key, func() (any, error) { return 7.5, nil }))
	if err != nil || val != 7.5 {
		t.Fatalf("compute: (%v, %v)", val, err)
	}
	e1.Close()
	sl.mu.Lock()
	ent, ok := sl.vals[key]
	puts := sl.puts
	sl.mu.Unlock()
	if !ok || ent.val != 7.5 {
		t.Fatalf("second level did not capture the cell (puts=%d)", puts)
	}

	e2 := New(2)
	defer e2.Close()
	e2.SetSecondLevel(sl)
	ran := false
	val2, err := waitWithDeadline(t, e2.Submit(key, func() (any, error) { ran = true; return nil, nil }))
	if err != nil || val2 != 7.5 {
		t.Fatalf("replay: (%v, %v)", val2, err)
	}
	if ran {
		t.Error("fn re-ran on the second engine despite a second-level hit")
	}
}

// TestSecondLevelErrorsNotPublished: failed cells must not poison the
// persistent store.
func TestSecondLevelErrorsNotPublished(t *testing.T) {
	sl := newFakeSecond()
	e := New(2)
	defer e.Close()
	e.SetSecondLevel(sl)
	boom := errors.New("boom")
	if _, err := waitWithDeadline(t, e.Submit(Key{Workload: "fails"}, func() (any, error) { return nil, boom })); !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.puts != 0 {
		t.Errorf("failed cell published to second level (puts=%d)", sl.puts)
	}
}

// slowSecond is a fakeSecond whose Put takes a while, like a store
// append that has to wait for its writer lock or a group-commit fsync.
type slowSecond struct{ *fakeSecond }

func (s slowSecond) Put(key Key, val any, cycles uint64) {
	time.Sleep(5 * time.Millisecond)
	s.fakeSecond.Put(key, val, cycles)
}

// TestCellsArePublishedBeforeTheyComplete: a computed cell reaches the
// second level before its task completes, so a caller that waits on
// every task and then closes the store (gridbench's drain-then-close)
// finds every cell already written.
func TestCellsArePublishedBeforeTheyComplete(t *testing.T) {
	sl := slowSecond{newFakeSecond()}
	e := New(2)
	defer e.Close()
	e.SetSecondLevel(sl)
	cells := make([]BatchCell, 8)
	for i := range cells {
		v := float64(i)
		cells[i] = BatchCell{Key: Key{Workload: "publish", Seed: uint64(i)}, Fn: func() (any, error) { return v, nil }}
	}
	for _, task := range e.SubmitBatch(cells) {
		if _, err := waitWithDeadline(t, task); err != nil {
			t.Fatal(err)
		}
	}
	sl.mu.Lock()
	puts := sl.puts
	sl.mu.Unlock()
	if puts != len(cells) {
		t.Fatalf("only %d of %d cells published", puts, len(cells))
	}
}
