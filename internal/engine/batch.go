// Batch submission: the engine's one submission path (Submit is a
// one-cell batch).
//
// Submitting a cell pays a fixed toll — a scope allocation, a
// second-level Get, a planner lock round-trip, a wakeup check — that
// dominates once the cells themselves are cheap (a warm store replays a
// cell in microseconds; a folded follower never runs at all). For
// full-grid sweeps, where the caller holds the whole slice of cells up
// front, SubmitBatch amortizes the toll across the slice:
//
//   - One memo section. The whole slice is classified — memo hit,
//     class fold or new leader — under a single write-lock acquisition
//     of the memo maps, presized on the first batch.
//   - One planner unit. All leaders enqueue under a single planner lock
//     acquisition, one push-sequence bump and one wakeup broadcast,
//     instead of len(cells) of each.
//   - Inline fan-out. A display key whose canonical class has already
//     finished receives the class value during submission — a struct
//     copy against a pre-closed channel — instead of allocating a done
//     channel and registering as a follower. On warm sweeps this is the
//     common case for every cell after the first of its class.
//   - Batched replay. Class leaders look the second level up through
//     one GetBatch call (stores that implement BatchSecondLevel sort
//     the reads for locality under one index lock) instead of
//     independent Gets.
//   - Deferred scopes. A cell's simscope is only allocated once the
//     cell is known to need simulating; memo hits, folds and store
//     replays allocate none.
//
// Counter contract: Hits/Misses/ClassHits/SecondLevelHits are functions
// of the submitted key multiset alone — however the cells are split into
// batches and however the batches interleave — so rendered cache notes
// never depend on scheduling. InlineFanouts is scheduling-dependent
// telemetry.
package engine

import (
	"context"
	"runtime/pprof"

	"spectrebench/internal/gls"
	"spectrebench/internal/simscope"
)

// BatchCell is one cell of a SubmitBatch call: a display key and the
// function that simulates it (pure with respect to the key).
type BatchCell struct {
	Key Key
	Fn  func() (any, error)
}

// BatchGet is one result of a BatchSecondLevel.GetBatch lookup,
// positionally matching the requested key slice.
type BatchGet struct {
	Val    any
	Cycles uint64
	OK     bool
}

// BatchSecondLevel is an optional SecondLevel extension: a store that
// can resolve many keys in one call (one index lock, reads sorted for
// locality). SubmitBatch uses it for the class leaders of a batch;
// stores without it are consulted key by key.
type BatchSecondLevel interface {
	SecondLevel
	GetBatch(keys []Key) []BatchGet
}

// LinkRecorder is an optional SecondLevel extension: a store keeping a
// display→canonical sidecar index receives every display-key fold the
// engine performs, so a future process can resolve display keys it has
// never canonicalized. Implementations must tolerate duplicates and
// must not fail (degrade silently, like Put).
type LinkRecorder interface {
	PutLink(display, canonical Key)
}

// LinkPair is one display→canonical fold of a batch.
type LinkPair struct {
	Display, Canonical Key
}

// BatchLinkRecorder is an optional LinkRecorder extension: a store
// that can ingest a batch's folds in one call (one writer lock instead
// of one per aliased cell). SubmitBatch accumulates its folds and
// flushes them through it; recorders without it are fed pair by pair.
type BatchLinkRecorder interface {
	LinkRecorder
	PutLinkBatch(pairs []LinkPair)
}

// closedChan is the shared pre-closed done channel of tasks that are
// complete at construction time (inline fan-outs). Waiters fall through
// the select immediately; nothing ever closes it again.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// snapshot returns t's result if it has finished. The fmu acquisition
// orders the val/err/cycles writes (made before finish took the lock)
// before the reads; an unfinished task's fields may still be being
// written by its worker, so they are not read at all.
func (t *Task) snapshot() (val any, err error, cycles uint64, finished bool) {
	t.fmu.Lock()
	defer t.fmu.Unlock()
	if !t.finished {
		return nil, nil, 0, false
	}
	return t.val, t.err, t.cycles, true
}

// SubmitBatch schedules every cell of the slice and returns their
// tasks in input order: the memoized task of a key submitted before,
// a follower of the key's canonical class when the class is already
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
	cz := e.canonicalizer()
	dedup := cz != nil && !e.noDedup
	sl := e.secondLevel()
	bsl, _ := sl.(BatchSecondLevel)
	links, _ := sl.(LinkRecorder)
	blinks, _ := sl.(BatchLinkRecorder)
	// Folds are accumulated and flushed once after the loop: links are
	// duplicate-tolerant hints, so deferring them is unobservable, and a
	// cold full-grid sweep records one per aliased cell.
	var folds []LinkPair
	if links != nil && cz != nil {
		folds = make([]LinkPair, 0, len(cells))
	}
	gid := gls.ID()
	parent := simscope.CurrentG(gid)

	// leaders are the first sights of their class this engine has not
	// resolved yet: they go through the second level, and the misses
	// simulate. All the batch's tasks come out of one slab — a full-grid
	// batch otherwise pays len(cells) individual allocations.
	var leaders []*Task
	slab := make([]Task, len(cells))
	var hits, misses, classHits, inline uint64

	// The classification loop runs under one write-lock acquisition of
	// the memo, so no other submitter can claim a key between its lookup
	// and its insert. The canonicalizer is called inside it and must not
	// re-enter the engine.
	e.memoMu.Lock()
	if e.cache == nil {
		// First batch: size the memo for the whole slice (and the class
		// map for a highly-deduped grid, ~1 class per 32 cells) instead
		// of growing them through a dozen rehashes of string keys.
		e.cache = make(map[Key]*Task, len(cells))
		e.classes = make(map[Key]*Task, 16+len(cells)/32)
	}
	// Leaders created by THIS call carry its batch number. They are
	// provably unscheduled until enqueueBatch at the bottom (no scope, in
	// no queue), so their followers can share the leader's done channel —
	// no per-follower channel allocation, no snapshot lock — and finish()
	// is guaranteed to copy their values before its single close.
	e.batchSeq++
	batch := e.batchSeq
	for i, c := range cells {
		if t, ok := e.cache[c.Key]; ok {
			hits++
			out[i] = t
			continue
		}
		if e.closed.Load() {
			out[i] = e.closedTask("cell " + c.Key.String())
			continue
		}
		ckey := c.Key
		if cz != nil {
			ckey = cz(c.Key)
		}
		t := &slab[i]
		t.eng, t.key, t.keyed = e, ckey, true
		e.cache[c.Key] = t
		out[i] = t
		misses++
		if links != nil && ckey != c.Key {
			folds = append(folds, LinkPair{Display: c.Key, Canonical: ckey})
		}
		if dedup {
			if ct, ok := e.classes[ckey]; ok {
				classHits++
				if ct.batch == batch {
					// Batch-local fold: the leader cannot finish before
					// enqueueBatch, so the follower shares its done channel.
					t.done = ct.done
					ct.follow(t)
				} else if val, err, cyc, fin := ct.snapshot(); fin {
					// Inline fan-out: the class already finished, so the
					// display key's task is born complete — value copied
					// here, done channel shared and pre-closed, no
					// follower registration, no wakeup.
					t.val, t.err, t.cycles, t.finished, t.done = val, err, cyc, true, closedChan
					inline++
				} else {
					// Class scheduled by an earlier submission and still
					// running: a conventional follower with its own
					// channel.
					t.done = make(chan struct{})
					ct.follow(t)
				}
				continue
			}
			e.classes[ckey] = t
		}
		// First sight of the class (or dedup off): leader. The scope is
		// allocated later, only if the cell survives the store lookup and
		// actually needs simulating.
		t.fn, t.done, t.batch = c.Fn, make(chan struct{}), batch
		leaders = append(leaders, t)
	}
	e.memoMu.Unlock()
	e.hits.Add(hits)
	e.misses.Add(misses)
	e.classHits.Add(classHits)
	e.inlineFanouts.Add(inline)

	if len(folds) > 0 {
		if blinks != nil {
			blinks.PutLinkBatch(folds)
		} else {
			for _, p := range folds {
				links.PutLink(p.Display, p.Canonical)
			}
		}
	}

	// Batched second-level replay for the class leaders, keyed
	// canonically. A hit completes the task in place — value and
	// simulated-cycle cost replayed exactly as a fresh run would have
	// produced them — without ever scheduling it. It still counted as a
	// first-level miss above, so rendered output is byte-identical
	// between cold and warm stores. The memo lock ordered the task's
	// fields before any other submitter could see it, and finish()
	// publishes the result to any follower that attached meanwhile.
	if len(leaders) > 0 && sl != nil {
		keys := make([]Key, len(leaders))
		for i, t := range leaders {
			keys[i] = t.key
		}
		var got []BatchGet
		if bsl != nil {
			got = bsl.GetBatch(keys)
		} else {
			got = make([]BatchGet, len(keys))
			for i, k := range keys {
				v, cyc, ok := sl.Get(k)
				got[i] = BatchGet{Val: v, Cycles: cyc, OK: ok}
			}
		}
		live := leaders[:0]
		for i, t := range leaders {
			if i < len(got) && got[i].OK {
				e.slHits.Add(1)
				t.val, t.cycles = got[i].Val, got[i].Cycles
				t.finish()
				continue
			}
			live = append(live, t)
		}
		leaders = live
	}

	// The survivors simulate: allocate their determinism scopes (fault
	// seed = canonical key hash, activation, budget and tag from the
	// submitter's scope; an unscoped submitter's cells run fault-free
	// and unbudgeted) and enqueue them as one planner unit.
	for _, t := range leaders {
		sc := &simscope.Scope{FaultSeed: t.key.Hash()}
		if parent != nil {
			sc.Fault, sc.Budget, sc.Tag = parent.Fault, parent.Budget, parent.Tag
		}
		t.scope = sc
	}
	e.enqueueBatch(leaders, gid)
}

// BatchGo is one unkeyed task of a GoBatch call.
type BatchGo struct {
	Label string
	Fn    func() (any, error)
}

// GoBatch schedules a slice of unkeyed tasks — all under the
// submitter's current scope — with one queue lock acquisition and one
// wakeup instead of per-task rounds. The harness uses it to enqueue a
// whole supervised batch's experiments at once.
func (e *Engine) GoBatch(items []BatchGo) []*Task {
	out := make([]*Task, len(items))
	if e.closed.Load() {
		for i := range items {
			out[i] = e.closedTask(items[i].Label)
		}
		return out
	}
	gid := gls.ID()
	sc := simscope.CurrentG(gid)
	for i, it := range items {
		out[i] = &Task{eng: e, label: it.Label, fn: it.Fn, scope: sc, done: make(chan struct{})}
	}
	e.enqueueBatch(out, gid)
	return out
}

// pushAll appends a slice of tasks under one lock acquisition.
func (s *shard) pushAll(ts []*Task) {
	s.mu.Lock()
	s.tasks = append(s.tasks, ts...)
	s.mu.Unlock()
}

// enqueueBatch places tasks where their consumers will find them, under
// one lock acquisition per destination: keyed cells into the planner's
// prefix buckets, unkeyed tasks onto the submitting worker's own deque
// (tail = hottest) or the global queue for outside submitters. Then one
// publication bump and one broadcast wake the pool, starting the
// workers on first use.
func (e *Engine) enqueueBatch(ts []*Task, gid uint64) {
	if len(ts) == 0 {
		return
	}
	e.startOnce.Do(e.start)
	// SubmitBatch passes only cells, GoBatch only unkeyed tasks.
	if ts[0].keyed {
		e.plan.addBatch(ts)
	} else if w, ok := e.workerOf.Load(gid); ok {
		e.shards[w.(int)].pushAll(ts)
	} else {
		e.global.pushAll(ts)
	}
	// Publication handshake: the tasks are visible in their queues
	// before the sequence bump, and the bump happens before the sleeper
	// check (see the package doc).
	e.pushSeq.Add(1)
	if e.sleepers.Load() > 0 {
		e.idleMu.Lock()
		if len(ts) == 1 {
			e.cond.Signal()
		} else {
			e.cond.Broadcast()
		}
		e.idleMu.Unlock()
	}
	// A Close that raced this submission may have drained the queues
	// before our push became visible to it; re-checking here closes the
	// window — whichever side runs second sees the other's write and
	// fails the tasks instead of stranding them.
	if e.closed.Load() {
		e.failPending()
	}
}
