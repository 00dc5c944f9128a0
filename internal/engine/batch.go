// Batch submission: the engine's one submission path (Submit is a
// one-cell batch).
//
// Submitting a cell pays a fixed toll — a task and scope allocation, a
// second-level lookup, a queue lock round-trip, a wakeup — that
// dominates once the cells themselves are cheap (a warm store replays a
// cell in microseconds; a folded display key never runs at all). For
// full-grid sweeps, where the caller holds the whole slice of cells up
// front, SubmitBatch amortizes the toll across the slice:
//
//   - One memo section. The whole slice is classified — memo hit,
//     class fold or new leader — in one loop under a single write-lock
//     acquisition of the memo. A key the canonicalizer knows is looked
//     up and stored by its display and class slots, in slices sized when
//     the canonicalizer was installed, so the memo hashes no grid key;
//     any other key goes through the keyed map, presized for the rest of
//     the batch when the first one arrives. A fold stores and returns the
//     class's own task, so only class leaders allocate one.
//   - One enqueue. All leaders enqueue under a single queue lock
//     acquisition and one wakeup broadcast, instead of len(cells) of
//     each.
//   - Batched replay. Class leaders look the second level up through
//     one GetBatch call (the store sorts the reads for locality under
//     one index lock).
//   - Deferred scopes. A cell's simscope is only allocated once the
//     cell is known to need simulating; memo hits, folds and store
//     replays allocate none.
//
// Counter contract: Hits/Misses/ClassHits/SecondLevelHits are functions
// of the submitted key multiset alone — however the cells are split into
// batches and however the batches interleave — so rendered cache notes
// never depend on scheduling.
package engine

import (
	"context"
	"runtime/pprof"

	"spectrebench/internal/simscope"
)

// BatchCell is one cell of a SubmitBatch call: a display key and the
// function that simulates it (pure with respect to the key).
type BatchCell struct {
	Key Key
	Fn  func() (any, error)
}

// BatchSecondLevel is SecondLevel under its former name, from when
// GetBatch was an optional extension. It stays because the benchmark
// module's tests name it.
type BatchSecondLevel = SecondLevel

// LinkRecorder, LinkPair and BatchLinkRecorder are declarations only:
// the engine no longer hands display→canonical folds to its second
// level, which keys records by canonical class alone. They stay
// because the benchmark module's store decorator compiles against
// them.
type LinkRecorder interface {
	PutLink(display, canonical Key)
}

// LinkPair is one display→canonical fold (see LinkRecorder).
type LinkPair struct {
	Display, Canonical Key
}

// BatchLinkRecorder is a declaration only (see LinkRecorder).
type BatchLinkRecorder interface {
	LinkRecorder
	PutLinkBatch(pairs []LinkPair)
}

// SubmitBatch schedules every cell of the slice and returns their
// tasks in input order: the memoized task of a key submitted before,
// the task of the key's canonical class when the class is already
// known, a task completed from the second level, or a fresh cell. Each
// cell's fault seed, activation snapshot and cycle budget are captured
// from the submitter's scope at submission time. Never returns nil
// tasks: a closed engine yields pre-failed ErrClosed tasks.
func (e *Engine) SubmitBatch(cells []BatchCell) []*Task {
	out := make([]*Task, len(cells))
	pprof.Do(context.Background(), pprof.Labels("engine", "submit-batch"), func(context.Context) {
		e.submitBatch(cells, out)
	})
	return out
}

func (e *Engine) submitBatch(cells []BatchCell, out []*Task) {
	// leaders are the first sights of their class this engine has not
	// resolved yet: they go through the second level, and the misses
	// simulate.
	var leaders []*Task
	var hits, misses, classHits uint64

	// The classification loop runs under one write-lock acquisition of
	// the memo, so no other submitter can claim a key between its lookup
	// and its insert. The canonicalizer is called inside it and must not
	// re-enter the engine.
	e.memoMu.Lock()
	for i, c := range cells {
		ckey, d, cl := e.fold(c.Key)
		if t := e.memoized(c.Key, d); t != nil {
			hits++
			out[i] = t
			continue
		}
		if e.q.closed.Load() {
			out[i] = e.closedTask("cell " + c.Key.String())
			continue
		}
		misses++
		// A fold: the display key is memoized to its class's task, which
		// carries the class result whether it is pending, running or done.
		// Only keys the canonicalizer knows fold; classes stays empty
		// unless dedup is on.
		if t := e.classTask(cl); t != nil {
			classHits++
			e.displays[d], out[i] = t, t
			continue
		}
		// First sight of the class (or dedup off): leader. The scope is
		// allocated later, only if the cell survives the store lookup and
		// actually needs simulating.
		t := &Task{eng: e, key: ckey, keyed: true, fn: c.Fn, done: make(chan struct{})}
		if cl >= 0 && !e.noDedup {
			e.classes[cl] = t
		}
		e.memoize(c.Key, d, t, len(cells)-i)
		out[i] = t
		leaders = append(leaders, t)
	}
	e.memoMu.Unlock()
	e.hits.Add(hits)
	e.misses.Add(misses)
	e.classHits.Add(classHits)

	// Batched second-level replay for the class leaders, keyed
	// canonically. A hit completes the task in place — value and
	// simulated-cycle cost replayed exactly as a fresh run would have
	// produced them — without ever scheduling it. It still counted as a
	// first-level miss above, so rendered output is byte-identical
	// between cold and warm stores.
	if sl := e.secondLevel(); sl != nil && len(leaders) > 0 {
		keys := make([]Key, len(leaders))
		for i, t := range leaders {
			keys[i] = t.key
		}
		got := sl.GetBatch(keys)
		live := leaders[:0]
		for i, t := range leaders {
			if i < len(got) && got[i].OK {
				e.slHits.Add(1)
				t.val, t.cycles = got[i].Val, got[i].Cycles
				close(t.done)
				continue
			}
			live = append(live, t)
		}
		leaders = live
	}

	// The survivors simulate: allocate their determinism scopes (fault
	// seed = canonical key hash, activation, budget and tag from the
	// submitter's scope; an unscoped submitter's cells run fault-free
	// and unbudgeted) and enqueue them with one lock acquisition.
	if len(leaders) == 0 {
		return
	}
	parent := simscope.CurrentG(goroutineID())
	for _, t := range leaders {
		sc := &simscope.Scope{FaultSeed: t.key.Hash()}
		if parent != nil {
			sc.Fault, sc.Budget, sc.Tag = parent.Fault, parent.Budget, parent.Tag
		}
		t.scope = sc
	}
	e.enqueueBatch(leaders, false)
}

// BatchGo is one unkeyed task of a GoBatch call.
type BatchGo struct {
	Label string
	Fn    func() (any, error)
	// Scope, when non-nil, is the scope the task runs under instead of
	// the submitter's. The worker enters it with the goroutine ID it
	// already holds, so a task that would otherwise enter a scope of its
	// own first thing parses no stack for it. The task borrows the
	// scope: the engine never releases it.
	Scope *simscope.Scope
}

// GoBatch schedules a slice of unkeyed tasks — each under its item's
// Scope, or else the submitter's current scope — with one queue lock
// acquisition and one wakeup instead of per-task rounds. The harness
// uses it to enqueue a whole supervised batch's experiments at once.
func (e *Engine) GoBatch(items []BatchGo) []*Task {
	out := make([]*Task, len(items))
	gid := goroutineID()
	parent := simscope.CurrentG(gid)
	for i, it := range items {
		sc := it.Scope
		if sc == nil {
			sc = parent
		}
		out[i] = &Task{eng: e, label: it.Label, fn: it.Fn, scope: sc, done: make(chan struct{})}
	}
	_, nested := e.workerOf.Load(gid)
	e.enqueueBatch(out, nested)
	return out
}

// enqueueBatch queues tasks (all cells or all unkeyed tasks; nested
// when a worker spawned them), starting the workers on first use. On a
// closed engine it fails them with ErrClosed instead.
func (e *Engine) enqueueBatch(ts []*Task, nested bool) {
	if len(ts) == 0 {
		return
	}
	if !e.q.push(ts, nested) {
		for _, t := range ts {
			t.fail()
		}
		return
	}
	e.startOnce.Do(e.start)
}
