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
// foldConfig (every key "v=C,alias=A" folds to "v=C").
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
		e.SetCanonicalizer(foldConfig)
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

// TestSubmitBatchInlineFanout: once a canonical class has finished, a
// batched alias of it is born complete — no scheduler round-trip, no
// extra simulation — and counted as an inline fanout.
func TestSubmitBatchInlineFanout(t *testing.T) {
	e := New(1)
	defer e.Close()
	e.SetCanonicalizer(foldConfig)
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
	if d.InlineFanouts != 2 {
		t.Errorf("inlineFanouts = %d, want 2", d.InlineFanouts)
	}
	if d.ClassHits != 2 {
		t.Errorf("classHits = %d, want 2 (identical to the Submit path)", d.ClassHits)
	}
	// Inline-fanout tasks still memoize: resubmitting is a memo hit.
	if _, err := e.Submit(Key{Workload: "w", Uarch: "u", Config: "v=1,a"}, fn).Wait(); err != nil {
		t.Fatal(err)
	}
	if d := e.StatsDetail(); d.Hits != 1 {
		t.Errorf("hits = %d after alias resubmit, want 1", d.Hits)
	}
}

// batchSL is a BatchSecondLevel + LinkRecorder fake: a map store that
// counts GetBatch calls and records PutLink pairs.
type batchSL struct {
	mu       sync.Mutex
	vals     map[Key]float64
	getBatch int
	gets     int
	links    map[Key]Key
	puts     int
}

func newBatchSL() *batchSL {
	return &batchSL{vals: map[Key]float64{}, links: map[Key]Key{}}
}

func (s *batchSL) Get(key Key) (any, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.vals[key]
	return v, 7, ok
}

func (s *batchSL) Put(key Key, val any, cycles uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.vals[key] = val.(float64)
}

func (s *batchSL) GetBatch(keys []Key) []BatchGet {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.getBatch++
	out := make([]BatchGet, len(keys))
	for i, k := range keys {
		v, ok := s.vals[k]
		out[i] = BatchGet{Val: v, Cycles: 7, OK: ok}
	}
	return out
}

func (s *batchSL) PutLink(display, canonical Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.links[display] = canonical
}

// TestSubmitBatchUsesGetBatch: class leaders of a batch resolve through
// one GetBatch call; hits replay without simulating, misses simulate
// and publish back, and display→canonical folds reach the LinkRecorder.
func TestSubmitBatchUsesGetBatch(t *testing.T) {
	sl := newBatchSL()
	warmClass := Key{Workload: "w", Uarch: "u0", Config: "v=0"}
	sl.vals[warmClass] = 42.5

	e := New(2)
	defer e.Close()
	e.SetCanonicalizer(foldConfig)
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
	if _, _, c, _ := tasks[0].snapshot(); c != 7 {
		t.Errorf("warm cell cycles = %d, want 7 (replayed cost)", c)
	}
	if v1.(float64) != 3.25 {
		t.Errorf("cold cell = %v, want 3.25", v1)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("ran %d simulations, want 1 (warm class replays)", got)
	}
	sl.mu.Lock()
	gb, gets, links := sl.getBatch, sl.gets, len(sl.links)
	sl.mu.Unlock()
	if gb != 1 {
		t.Errorf("GetBatch calls = %d, want 1", gb)
	}
	if gets != 0 {
		t.Errorf("per-key Gets = %d, want 0 (batch path)", gets)
	}
	if links != 1 {
		t.Errorf("recorded links = %d, want 1 (the folded alias)", links)
	}
	if got := sl.links[cells[0].Key]; got != warmClass {
		t.Errorf("link %v -> %v, want -> %v", cells[0].Key, got, warmClass)
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

// TestSubmitBatchWarmIsAllInline: a second identical batch is pure memo
// hits; a batch of fresh aliases of finished classes is pure inline
// fanout. Neither schedules anything.
func TestSubmitBatchWarmIsAllInline(t *testing.T) {
	keys := batchKeys(12, 2)
	fn := func() (any, error) { return 1.0, nil }
	cells := make([]BatchCell, len(keys))
	for i, k := range keys {
		cells[i] = BatchCell{Key: k, Fn: fn}
	}
	e := New(2)
	defer e.Close()
	e.SetCanonicalizer(foldConfig)
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

	// Fresh aliases of finished classes: all inline fanouts.
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
	if d2.InlineFanouts-d.InlineFanouts != uint64(len(fresh)) {
		t.Errorf("fresh aliases: inlineFanouts +%d, want +%d", d2.InlineFanouts-d.InlineFanouts, len(fresh))
	}
	if d2.Simulated != d.Simulated {
		t.Errorf("fresh aliases simulated %d new cells, want 0", d2.Simulated-d.Simulated)
	}
}
