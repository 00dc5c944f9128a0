package engine_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"spectrebench/internal/engine"
	"spectrebench/internal/grid"
	"spectrebench/internal/simscope"
)

// TestConcurrentSubmitFoldedKeys: many goroutines Submit every display
// key of a grid prefix at once, half of them already memoized by a
// batch, so the read-locked fast path folds keys through the grid
// canonicalizer while other submitters hold the write lock. Every
// goroutine must get the same task for a key, the cells of one class
// one task, each class must run once with its canonical fault seed, and
// the ledger must add up.
func TestConcurrentSubmitFoldedKeys(t *testing.T) {
	const goroutines = 8
	cells := grid.Cells(4000, 0)
	classes := grid.Classes(cells)
	e := engine.New(2)
	defer e.Close()
	cz := grid.Canonicalizer(cells)
	e.SetCanonicalizer(cz)

	_, nc := cz.Slots()
	runs := make([]atomic.Int64, nc)
	fnFor := func(c grid.Cell) func() (any, error) {
		_, _, slot, _ := cz.Fold(c.Display)
		return func() (any, error) {
			runs[slot].Add(1)
			return simscope.Current().FaultSeed, nil
		}
	}
	half := make([]engine.BatchCell, len(cells)/2)
	for i := range half {
		half[i] = engine.BatchCell{Key: cells[i].Display, Fn: fnFor(cells[i])}
	}
	e.SubmitBatch(half)

	got := make([][]*engine.Task, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range got {
		got[g] = make([]*engine.Task, len(cells))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := range cells {
				i := (j + 531*g) % len(cells)
				if g%2 == 1 {
					i = len(cells) - 1 - i
				}
				got[g][i] = e.Submit(cells[i].Display, fnFor(cells[i]))
			}
		}()
	}
	close(start)
	wg.Wait()

	byClass := map[engine.Key]*engine.Task{}
	for i, c := range cells {
		task := got[0][i]
		for g := 1; g < goroutines; g++ {
			if got[g][i] != task {
				t.Fatalf("%v: goroutines 0 and %d got different tasks", c.Display, g)
			}
		}
		if prev, ok := byClass[c.CanonKey()]; ok && prev != task {
			t.Fatalf("%v: a second task for class %v", c.Display, c.CanonKey())
		}
		byClass[c.CanonKey()] = task
		if v, err := task.Wait(nil); err != nil || v != c.CanonKey().Hash() {
			t.Fatalf("%v: (%v, %v), want its class seed %d", c.Display, v, err, c.CanonKey().Hash())
		}
	}
	if len(byClass) != classes {
		t.Fatalf("%d class tasks, want %d", len(byClass), classes)
	}
	for slot := range runs {
		if n := runs[slot].Load(); n > 1 {
			t.Fatalf("class slot %d ran %d times", slot, n)
		}
	}
	d := e.StatsDetail()
	submitted := uint64(len(half) + goroutines*len(cells))
	if d.Misses != uint64(len(cells)) || d.Hits != submitted-d.Misses ||
		d.ClassHits != uint64(len(cells)-classes) || d.Simulated != uint64(classes) {
		t.Fatalf("ledger %+v: want %d misses, %d hits, %d class hits, %d simulated",
			d, len(cells), submitted-uint64(len(cells)), len(cells)-classes, classes)
	}
}
