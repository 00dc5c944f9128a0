package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spectrebench/internal/simscope"
)

// refMemo is the map-keyed reference of the engine's memo: display keys
// and classes keyed by the Key struct, under the engine's counter
// contract. Each new task — a first sight of a class, or of any display
// key with dedup off — gets the next number.
type refMemo struct {
	dedup                           bool
	stored                          map[Key]bool // classes the second level holds
	display, class                  map[Key]int
	tasks                           int
	hits, misses, classHits, slHits uint64
}

// submit returns the number of display key k's task.
func (r *refMemo) submit(k Key) int {
	if id, ok := r.display[k]; ok {
		r.hits++
		return id
	}
	r.misses++
	canon := canonKey(k)
	folds := r.dedup && strings.HasPrefix(k.Config, "v=")
	if id, ok := r.class[canon]; ok && folds {
		r.classHits++
		r.display[k] = id
		return id
	}
	id := r.tasks
	r.tasks++
	if folds {
		r.class[canon] = id
	}
	r.display[k] = id
	if r.stored[canon] {
		r.slHits++
	}
	return id
}

// storedOnly is a read-only second level: it replays a fixed set of
// classes and drops every Put, so whether a leader hits it does not
// depend on which cells finished first.
type storedOnly map[Key]bool

func (s storedOnly) GetBatch(keys []Key) []BatchGet {
	out := make([]BatchGet, len(keys))
	for i, k := range keys {
		if s[k] {
			out[i] = BatchGet{Val: k.Hash(), Cycles: 1, OK: true}
		}
	}
	return out
}

func (storedOnly) Put(Key, any, uint64) {}

// TestSlotMemoMatchesKeyedReference drives random submissions through
// engines whose canonicalizer names keys by slot and compares them with
// the map-keyed reference memo. The submissions mix keys the
// canonicalizer knows (several display keys per class, duplicates
// within one batch) with keys it does not, repeat keys across batches,
// and alternate Submit with SubmitBatch slices, on dedup and no-dedup
// engines with part of the classes in the second level. Which outputs
// share a *Task, every value (the cell's canonical fault seed) and all
// four counters must match the reference.
func TestSlotMemoMatchesKeyedReference(t *testing.T) {
	var pool []Key
	for c := 0; c < 6; c++ {
		for a := 0; a < 3; a++ {
			pool = append(pool, Key{Workload: "w", Uarch: fmt.Sprintf("u%d", c%2), Config: fmt.Sprintf("v=%d,alias=%d", c, a)})
		}
		pool = append(pool, Key{Workload: "w", Uarch: fmt.Sprintf("u%d", c%2), Config: fmt.Sprintf("v=%d", c)})
	}
	for j := 0; j < 8; j++ {
		pool = append(pool, Key{Workload: "w", Uarch: "u0", Config: fmt.Sprintf("plain=%d", j), Seed: uint64(j % 2)})
	}
	stored := map[Key]bool{}
	for c := 0; c < 6; c += 3 {
		stored[canonKey(Key{Workload: "w", Uarch: fmt.Sprintf("u%d", c%2), Config: fmt.Sprintf("v=%d", c)})] = true
	}
	stored[pool[len(pool)-1]] = true
	fn := func() (any, error) { return simscope.Current().FaultSeed, nil }

	for seed := int64(1); seed <= 40; seed++ {
		for _, dedup := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			e := New(2)
			e.noDedup = !dedup
			e.SetCanonicalizer(foldConfig())
			e.SetSecondLevel(storedOnly(stored))
			ref := &refMemo{dedup: dedup, stored: stored, display: map[Key]int{}, class: map[Key]int{}}
			var keys []Key
			var tasks []*Task
			var want []int
			for op := 0; op < 16; op++ {
				// A third of the operations are single Submits.
				n := 1
				if rng.Intn(3) > 0 {
					n += rng.Intn(10)
				}
				batch := make([]BatchCell, n)
				for i := range batch {
					batch[i] = BatchCell{Key: pool[rng.Intn(len(pool))], Fn: fn}
					keys = append(keys, batch[i].Key)
					want = append(want, ref.submit(batch[i].Key))
				}
				if n == 1 {
					tasks = append(tasks, e.Submit(batch[0].Key, fn))
				} else {
					tasks = append(tasks, e.SubmitBatch(batch)...)
				}
			}
			name := fmt.Sprintf("seed %d dedup %v", seed, dedup)
			number := map[*Task]int{}
			for i, task := range tasks {
				id, ok := number[task]
				if !ok {
					id = len(number)
					number[task] = id
				}
				if id != want[i] {
					t.Fatalf("%s: submission %d (%v) got task %d, reference %d", name, i, keys[i], id, want[i])
				}
				v, err := waitWithDeadline(t, task)
				if w := canonKey(keys[i]).Hash(); err != nil || v != w {
					t.Fatalf("%s: submission %d (%v) = (%v, %v), want its class seed %d", name, i, keys[i], v, err, w)
				}
			}
			d := e.StatsDetail()
			if d.Hits != ref.hits || d.Misses != ref.misses || d.ClassHits != ref.classHits || d.SecondLevelHits != ref.slHits {
				t.Fatalf("%s: ledger %+v, reference hits %d misses %d class hits %d store hits %d",
					name, d, ref.hits, ref.misses, ref.classHits, ref.slHits)
			}
			e.Close()
		}
	}
}
