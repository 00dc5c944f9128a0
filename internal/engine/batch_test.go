package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"spectrebench/internal/simscope"
)

// batchKeys builds n display keys folding onto n/alias classes under
// canonKey (every key "v=C,alias=A" folds to "v=C").
func batchKeys(n, alias int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{
			Workload: "w",
			Uarch:    fmt.Sprintf("u%d", i%2),
			Config:   fmt.Sprintf("v=%d,alias=%d", i/alias, i%alias),
		}
	}
	return keys
}

// TestSubmitBatchMatchesSubmit pins the counter contract: one batch
// submission yields the same values and the same hits / misses /
// classHits / simulated ledger as the same cells submitted one by one
// (one-cell batches) — how cells are split into batches never shows.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	keys := batchKeys(24, 3)
	fn := func() (any, error) { return simscope.Current().FaultSeed, nil }

	run := func(batch bool) (vals []uint64, d StatsDetail) {
		e := New(2)
		defer e.Close()
		e.SetCanonicalizer(foldConfig())
		var tasks []*Task
		if batch {
			cells := make([]BatchCell, len(keys))
			for i, k := range keys {
				cells[i] = BatchCell{Key: k, Fn: fn}
			}
			tasks = e.SubmitBatch(cells)
		} else {
			for _, k := range keys {
				tasks = append(tasks, e.Submit(k, fn))
			}
		}
		for i, tk := range tasks {
			v, err := tk.Wait()
			if err != nil {
				t.Fatalf("batch=%v key %d: %v", batch, i, err)
			}
			vals = append(vals, v.(uint64))
		}
		return vals, e.StatsDetail()
	}

	loopVals, loopD := run(false)
	batchVals, batchD := run(true)
	for i := range loopVals {
		if loopVals[i] != batchVals[i] {
			t.Errorf("cell %d: submit=%d batch=%d", i, loopVals[i], batchVals[i])
		}
	}
	if loopD.Hits != batchD.Hits || loopD.Misses != batchD.Misses ||
		loopD.ClassHits != batchD.ClassHits || loopD.Classes != batchD.Classes ||
		loopD.Simulated != batchD.Simulated {
		t.Errorf("counters diverge:\n  submit: %+v\n  batch:  %+v", loopD, batchD)
	}
}

// TestSubmitBatchFoldsOntoFinishedClass: once a canonical class has
// finished, a batched alias of it gets the finished class task — no
// scheduler round-trip, no extra simulation — and counts as a class hit.
func TestSubmitBatchFoldsOntoFinishedClass(t *testing.T) {
	e := New(1)
	defer e.Close()
	e.SetCanonicalizer(foldConfig())
	var runs atomic.Int64
	fn := func() (any, error) { runs.Add(1); return simscope.Current().FaultSeed, nil }

	lead, err := e.Submit(Key{Workload: "w", Uarch: "u", Config: "v=1"}, fn).Wait()
	if err != nil {
		t.Fatal(err)
	}
	tasks := e.SubmitBatch([]BatchCell{
		{Key: Key{Workload: "w", Uarch: "u", Config: "v=1,a"}, Fn: fn},
		{Key: Key{Workload: "w", Uarch: "u", Config: "v=1,b"}, Fn: fn},
	})
	for i, tk := range tasks {
		v, err := tk.Wait()
		if err != nil {
			t.Fatalf("alias %d: %v", i, err)
		}
		if v.(uint64) != lead.(uint64) {
			t.Errorf("alias %d: value %d, want class value %d", i, v, lead)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("ran %d simulations, want 1", got)
	}
	d := e.StatsDetail()
	if d.ClassHits != 2 {
		t.Errorf("classHits = %d, want 2 (identical to the Submit path)", d.ClassHits)
	}
	// Folded aliases still memoize: resubmitting is a memo hit.
	if _, err := e.Submit(Key{Workload: "w", Uarch: "u", Config: "v=1,a"}, fn).Wait(); err != nil {
		t.Fatal(err)
	}
	if d := e.StatsDetail(); d.Hits != 1 {
		t.Errorf("hits = %d after alias resubmit, want 1", d.Hits)
	}
}

// TestSubmitBatchUsesGetBatch: class leaders of a batch resolve through
// one GetBatch call; hits replay without simulating, misses simulate
// and publish back.
func TestSubmitBatchUsesGetBatch(t *testing.T) {
	sl := newFakeSecond()
	warmClass := Key{Workload: "w", Uarch: "u0", Config: "v=0"}
	sl.Put(warmClass, 42.5, 7)

	e := New(2)
	defer e.Close()
	e.SetCanonicalizer(foldConfig())
	e.SetSecondLevel(sl)

	var runs atomic.Int64
	fn := func() (any, error) { runs.Add(1); return 3.25, nil }
	cells := []BatchCell{
		{Key: Key{Workload: "w", Uarch: "u0", Config: "v=0,alias"}, Fn: fn}, // warm class
		{Key: Key{Workload: "w", Uarch: "u0", Config: "v=1"}, Fn: fn},       // cold class
	}
	tasks := e.SubmitBatch(cells)
	v0, err0 := tasks[0].Wait()
	v1, err1 := tasks[1].Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("errors: %v, %v", err0, err1)
	}
	if v0.(float64) != 42.5 {
		t.Errorf("warm cell = %v, want 42.5 (store replay)", v0)
	}
	if c := tasks[0].cycles; c != 7 {
		t.Errorf("warm cell cycles = %d, want 7 (replayed cost)", c)
	}
	if v1.(float64) != 3.25 {
		t.Errorf("cold cell = %v, want 3.25", v1)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("ran %d simulations, want 1 (warm class replays)", got)
	}
	sl.mu.Lock()
	gb := sl.getBatches
	sl.mu.Unlock()
	if gb != 1 {
		t.Errorf("GetBatch calls = %d, want 1", gb)
	}
	if d := e.StatsDetail(); d.SecondLevelHits != 1 {
		t.Errorf("secondLevelHits = %d, want 1", d.SecondLevelHits)
	}
}

// TestGoBatchRunsUnkeyedTasks: GoBatch is Go for a slice — same scope
// inheritance, one enqueue — and a closed engine pre-fails every task
// with ErrClosed, exactly like Go and SubmitBatch.
func TestGoBatchRunsUnkeyedTasks(t *testing.T) {
	e := New(2)
	items := make([]BatchGo, 8)
	for i := range items {
		i := i
		items[i] = BatchGo{Label: fmt.Sprintf("task-%d", i), Fn: func() (any, error) { return i * i, nil }}
	}
	for i, tk := range e.GoBatch(items) {
		v, err := tk.Wait()
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if v.(int) != i*i {
			t.Errorf("task %d = %v, want %d", i, v, i*i)
		}
	}
	e.Close()

	for _, tk := range e.GoBatch(items[:2]) {
		if _, err := tk.Wait(); !errors.Is(err, ErrClosed) {
			t.Errorf("closed GoBatch error = %v, want ErrClosed", err)
		}
	}
	for _, tk := range e.SubmitBatch([]BatchCell{{Key: Key{Workload: "w", Uarch: "u", Config: "c"}}}) {
		if _, err := tk.Wait(); !errors.Is(err, ErrClosed) {
			t.Errorf("closed SubmitBatch error = %v, want ErrClosed", err)
		}
	}
}

// TestCellsRunBeforeQueuedTasks: pending cells are served before
// pending unkeyed tasks. At -jobs 1, task A submits cells and waits on
// them while task B is still queued; the waiting worker must drain A's
// cells before it starts B, or every queued experiment would nest on
// one stack before any cell ran.
func TestCellsRunBeforeQueuedTasks(t *testing.T) {
	e := New(1)
	defer e.Close()
	var mu sync.Mutex
	var events []string
	log := func(ev string) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	const cells = 6
	a := func() (any, error) {
		var subs []*Task
		for i := 0; i < cells; i++ {
			i := i
			subs = append(subs, e.Submit(Key{Workload: "order", Seed: uint64(i)}, func() (any, error) {
				log(fmt.Sprintf("cell-%d", i))
				return i, nil
			}))
		}
		for _, s := range subs {
			if _, err := s.Wait(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	b := func() (any, error) {
		log("B")
		return nil, nil
	}
	for _, tk := range e.GoBatch([]BatchGo{{Label: "A", Fn: a}, {Label: "B", Fn: b}}) {
		if _, err := waitWithDeadline(t, tk); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != cells+1 || events[cells] != "B" {
		t.Fatalf("events = %v, want all %d cells of A before B", events, cells)
	}
}

// TestNestedTasksRunBeforeQueuedTasks: an unkeyed task spawned by a
// running task goes ahead of the tasks already queued. At -jobs 1, task
// A spawns a subtask and waits on it while task B is still queued; the
// waiting worker must run A's subtask before it starts B on its stack.
func TestNestedTasksRunBeforeQueuedTasks(t *testing.T) {
	e := New(1)
	defer e.Close()
	var mu sync.Mutex
	var events []string
	log := func(ev string) (any, error) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
		return nil, nil
	}
	a := func() (any, error) {
		return e.Go("sub", func() (any, error) { return log("sub") }).Wait()
	}
	b := func() (any, error) { return log("B") }
	for _, tk := range e.GoBatch([]BatchGo{{Label: "A", Fn: a}, {Label: "B", Fn: b}}) {
		if _, err := waitWithDeadline(t, tk); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0] != "sub" || events[1] != "B" {
		t.Fatalf("events = %v, want [sub B]", events)
	}
}

// TestSubmitBatchWarmSchedulesNothing: a second identical batch is pure
// memo hits; a batch of fresh aliases of finished classes is pure class
// hits. Neither schedules anything.
func TestSubmitBatchWarmSchedulesNothing(t *testing.T) {
	keys := batchKeys(12, 2)
	fn := func() (any, error) { return 1.0, nil }
	cells := make([]BatchCell, len(keys))
	for i, k := range keys {
		cells[i] = BatchCell{Key: k, Fn: fn}
	}
	e := New(2)
	defer e.Close()
	e.SetCanonicalizer(foldConfig())
	for _, tk := range e.SubmitBatch(cells) {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	base := e.StatsDetail()

	// Identical resubmission: all memo hits.
	for _, tk := range e.SubmitBatch(cells) {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	d := e.StatsDetail()
	if d.Hits-base.Hits != uint64(len(cells)) {
		t.Errorf("resubmitted batch: hits +%d, want +%d", d.Hits-base.Hits, len(cells))
	}
	if d.Simulated != base.Simulated {
		t.Errorf("resubmitted batch simulated %d new cells", d.Simulated-base.Simulated)
	}

	// Fresh aliases of finished classes: all class hits.
	fresh := make([]BatchCell, len(keys))
	for i, k := range keys {
		k.Config += ",fresh"
		fresh[i] = BatchCell{Key: k, Fn: fn}
	}
	for _, tk := range e.SubmitBatch(fresh) {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	d2 := e.StatsDetail()
	if d2.ClassHits-d.ClassHits != uint64(len(fresh)) {
		t.Errorf("fresh aliases: classHits +%d, want +%d", d2.ClassHits-d.ClassHits, len(fresh))
	}
	if d2.Simulated != d.Simulated {
		t.Errorf("fresh aliases simulated %d new cells, want 0", d2.Simulated-d.Simulated)
	}
}

// TestConcurrentSubmissionMatchesSequential hammers the memo from
// several goroutines at once: each submits every display key of an
// overlapping key set — some through SubmitBatch slices of varying
// length, the rest through Submit — in its own order. Every goroutine
// must get the same task for a display key, every class must execute
// once (never, if the second level holds it), and the
// Hits/Misses/ClassHits/SecondLevelHits ledger must equal that of one
// goroutine submitting the same multiset alone.
func TestConcurrentSubmissionMatchesSequential(t *testing.T) {
	const (
		goroutines = 8
		classes    = 12
		stored     = 3 // classes 0..stored-1 are in the second level
	)
	keys := make([]Key, classes*6)
	for i := range keys {
		keys[i] = Key{Workload: "w", Uarch: "u", Config: fmt.Sprintf("v=%d,alias=%d", i/6, i%6)}
	}
	classOf := func(k Key) int {
		var c int
		fmt.Sscanf(canonKey(k).Config, "v=%d", &c)
		return c
	}
	newSecond := func() *fakeSecond {
		sl := newFakeSecond()
		for _, k := range keys {
			if c := classOf(k); c < stored {
				sl.Put(canonKey(k), float64(c), uint64(c))
			}
		}
		return sl
	}
	// order returns goroutine g's submission order: a rotation and, for
	// odd g, a reversal of the key set.
	order := func(g int) []Key {
		out := make([]Key, len(keys))
		for i := range out {
			j := (i + 7*g) % len(keys)
			if g%2 == 1 {
				j = len(keys) - 1 - j
			}
			out[i] = keys[j]
		}
		return out
	}

	var runs [classes]atomic.Int64
	fnFor := func(k Key) func() (any, error) {
		c := classOf(k)
		return func() (any, error) {
			runs[c].Add(1)
			return float64(c), nil
		}
	}
	// submit pushes ks through e: alternating SubmitBatch slices of
	// 1..5 cells and single Submits.
	submit := func(e *Engine, ks []Key) map[Key]*Task {
		got := map[Key]*Task{}
		for i, step := 0, 1; i < len(ks); step = step%5 + 1 {
			if step%2 == 0 {
				got[ks[i]] = e.Submit(ks[i], fnFor(ks[i]))
				i++
				continue
			}
			end := min(i+step, len(ks))
			cells := make([]BatchCell, 0, end-i)
			for _, k := range ks[i:end] {
				cells = append(cells, BatchCell{Key: k, Fn: fnFor(k)})
			}
			for j, task := range e.SubmitBatch(cells) {
				got[ks[i+j]] = task
			}
			i = end
		}
		return got
	}

	e := New(4)
	defer e.Close()
	e.SetCanonicalizer(foldConfig())
	e.SetSecondLevel(newSecond())
	results := make([]map[Key]*Task, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[g] = submit(e, order(g))
		}()
	}
	close(start)
	wg.Wait()
	for _, k := range keys {
		task := results[0][k]
		for g := 1; g < goroutines; g++ {
			if results[g][k] != task {
				t.Fatalf("%v: goroutines 0 and %d got different tasks", k, g)
			}
		}
		v, err := waitWithDeadline(t, task)
		if err != nil || v != float64(classOf(k)) {
			t.Fatalf("%v: (%v, %v), want its class value %d", k, v, err, classOf(k))
		}
	}
	for c := range runs {
		want := int64(1)
		if c < stored {
			want = 0
		}
		if got := runs[c].Load(); got != want {
			t.Errorf("class %d executed %d times, want %d", c, got, want)
		}
	}

	seq := New(1)
	defer seq.Close()
	seq.SetCanonicalizer(foldConfig())
	seq.SetSecondLevel(newSecond())
	for g := 0; g < goroutines; g++ {
		submit(seq, order(g))
	}
	got, want := e.StatsDetail(), seq.StatsDetail()
	if got.Hits != want.Hits || got.Misses != want.Misses ||
		got.ClassHits != want.ClassHits || got.SecondLevelHits != want.SecondLevelHits {
		t.Errorf("concurrent ledger %+v, sequential %+v", got, want)
	}
	if want.Misses != uint64(len(keys)) || want.Hits != uint64((goroutines-1)*len(keys)) ||
		want.ClassHits != uint64(len(keys)-classes) || want.SecondLevelHits != stored {
		t.Errorf("sequential ledger %+v: want %d misses, %d hits, %d class hits, %d store hits",
			want, len(keys), (goroutines-1)*len(keys), len(keys)-classes, stored)
	}
}
