// Package engine runs simulation cells — independent units of simulated
// work — across a bounded pool of workers while keeping every observable
// result byte-identical to a serial run.
//
// # Cells and keys
//
// A cell is one (workload, uarch model, mitigation config, seed) tuple.
// Cells are pure: a cell's value, error and simulated-cycle cost are a
// function of its key alone. That purity is what makes the two engine
// features sound:
//
//   - Memoization. Submit deduplicates by key, so a cell shared by
//     several experiments (the OS-ladder sweeps of fig2/fig3/table9,
//     the LEBench runs shared by fig2 and lebench-detail) simulates
//     exactly once per engine. The first Submit of a key counts as a
//     miss, every later one as a hit — totals that depend only on the
//     submitted key multiset, never on scheduling.
//   - Parallelism. Cells have no ordering constraints between them, so
//     any worker may run any ready cell; callers gather results in
//     canonical order via Task.Wait.
//
// The cache is keyed by the Key struct itself (Go map equality), not by
// its hash — a hash collision therefore cannot alias two cells. The hash
// only seeds the cell's deterministic fault-injection stream.
//
// # Canonical keys and dedup classes
//
// Many distinct configurations lower to identical effective behaviour
// (a boot parameter requesting an unsupported mitigation is ignored;
// mitigations=off collapses nearly everything). An installed
// Canonicalizer maps each submitted (display) key to the canonical key
// of its equivalence class. Cells in one class share a single
// execution: the first display key to reach a class schedules the class
// task, and every later display key of the class is memoized to that
// same *Task — a fold allocates nothing and copies nothing. Hit/miss
// totals stay display-keyed (a display key's first sight is a miss
// even when it folds onto an existing class), so rendered cache notes
// are identical to those of an engine that simulates every display
// key; ClassHits counts the folds. When a canonicalizer is installed
// the cell's fault seed and second-level store key are the canonical
// key, so a folded cell's value is exactly the one it would have
// simulated itself.
//
// The canonicalizer also names every key it knows by dense slot — one
// per distinct display key, one per distinct class — so the engine
// memoizes those keys in two slices, sized once when the canonicalizer
// is installed, and hashes none of them. Keys it does not know (the
// harness's, the server's and the optimizer's cells) stand for
// themselves and are memoized in a map keyed by the Key struct.
//
// # Scheduling
//
// Every cell is an independent measurement, so the scheduler only has
// to run each pending task once and never lose a waiter:
//
//   - The memo is two slices (display slot → task, class slot → class
//     task) for the keys the canonicalizer knows and one plain map (key
//     → task) for the rest, under one RWMutex. A batch classifies all
//     its cells in one write section, so a key's lookup and insert can
//     never interleave with another submitter's: exactly one task per
//     key is ever scheduled and the hit/miss totals stay
//     scheduling-independent. A Submit memo hit takes the read lock.
//     Second-level reads and enqueueing run after the write section,
//     outside the lock.
//   - Pending work is two lists, keyed cells ahead of unkeyed tasks,
//     behind one mutex and one condition variable. A batch enqueues with
//     one lock acquisition and one wakeup. Idle workers block on the
//     condition variable; Close marks the queue closed, takes everything
//     still pending and wakes every worker under the same lock, and an
//     enqueue checks the closed mark under it too, so a wakeup cannot be
//     lost and a task is either run once or failed once.
//   - Cells run in submission order, ahead of unkeyed tasks, so that a
//     waiting experiment drains its own cells before it starts another
//     experiment nested on its stack. For the same reason the unkeyed
//     tasks a running task spawns (an experiment's per-model tasks) go
//     ahead of the queued ones; tasks submitted from outside the pool
//     (a batch's experiments) queue in submission order.
//
// Tasks may wait on other tasks (an experiment waits on its cells; a
// sweep waits on per-model tasks). A worker that blocks in Wait instead
// helps: it runs other pending tasks until the awaited task completes or
// the queue is empty (the awaited task is then running elsewhere).
// Because waits only ever point from experiments toward cells (a DAG)
// and a helping worker can take any pending task, the pool cannot
// deadlock even at -jobs 1.
//
// Workers resolve their goroutine ID once at startup and thread it
// through scope entry and helping joins (simscope.EnterG), and waiters
// name the scope they charge (Task.Wait), so the scheduler's hot paths
// never pay the runtime.Stack parse behind gls.ID: a wait parses only
// when its task is still pending, to learn whether the waiter is a
// worker that should help.
//
// # Determinism
//
// Each keyed task runs under its own simscope.Scope whose fault seed is
// the key hash and whose fault activation, cycle budget and tag are
// copied from the submitter's scope at Submit time (a submitter outside
// any scope gets none of them). Injector streams, fired-fault
// attribution and cycle accounting are therefore functions of the cell
// key — independent of worker count, run order and submission
// interleaving.
//
// # Resource recycling
//
// A keyed task's scope is released (simscope.Scope.Release) after the
// task completes and its cycle total has been published. Resource
// layers — the CPU core pool — register reclamation on the scope at
// construction time, so every core a cell builds is recycled exactly
// when the cell can no longer touch it, without the engine knowing what
// a core is.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"spectrebench/internal/faultinject"
	"spectrebench/internal/gls"
	"spectrebench/internal/simscope"
)

// goroutineID resolves the calling goroutine's ID (gls.ID, a
// runtime.Stack parse) for submitters and waiters. It is a variable so
// tests can count the parses.
var goroutineID = gls.ID

// ErrClosed is returned (via Task.Wait) by tasks submitted to an engine
// that has been closed. A daemon that drains and closes its engine on
// shutdown sees straggler submissions fail with this typed error
// instead of panicking or deadlocking.
var ErrClosed = errors.New("engine: closed")

// SecondLevel is a pluggable second-level cell cache behind the
// in-process memo map — in production, the on-disk content-addressed
// store (internal/store). A batch submission looks its new class
// leaders up through one GetBatch call, and the engine publishes every
// successfully computed cell back through Put.
//
// Determinism contract: GetBatch must return, positionally for each
// key, exactly what a prior Put stored for it — the cell's value and
// its simulated-cycle cost — so a replayed cell is indistinguishable
// from a fresh simulation in both rendered output and cycle accounting.
// Implementations must be safe for concurrent use by the worker pool
// and must degrade (miss / drop) rather than fail: neither method
// returns an error.
type SecondLevel interface {
	GetBatch(keys []Key) []BatchGet
	Put(key Key, val any, cycles uint64)
}

// BatchGet is one result of a SecondLevel.GetBatch lookup.
type BatchGet struct {
	Val    any
	Cycles uint64
	OK     bool
}

// Canonicalizer folds display keys down to the canonical keys of their
// equivalence classes — two keys with the same canonical form are
// guaranteed (by the caller) to denote behaviourally identical cells —
// and names every key it knows by dense slot, so the engine memoizes
// those keys by index instead of by hash.
//
// Fold reports, for a key in the set the canonicalizer knows, its
// canonical key, its display slot and its class slot. Two known keys
// share a display slot if and only if they are equal, and a class slot
// if and only if their canonical keys are equal. ok is false for any
// other key: it stands for itself, in the engine's keyed memo. A key the
// canonicalizer does not know never shares a task with one it knows,
// even if it equals that key's canonical form. Slots returns the sizes
// of the two slot spaces: every display slot Fold returns is below
// displays, every class slot below classes.
//
// Fold must be pure, and safe for concurrent use: Submit calls it under
// the engine's memo read lock from any number of goroutines, SubmitBatch
// under the write lock, so it must not call back into the engine.
type Canonicalizer interface {
	Fold(k Key) (canon Key, display, class int32, ok bool)
	Slots() (displays, classes int)
}

// Key identifies one simulation cell. Two Submits with equal Keys share
// one execution; every field therefore must capture everything the
// cell's result depends on.
type Key struct {
	// Workload names the computation (e.g. "micro/syscall",
	// "lebench/run", "vm/lfs/smallfile").
	Workload string
	// Uarch is the CPU model name.
	Uarch string
	// Config is the canonical encoding of the mitigation configuration
	// (and any other knobs, e.g. the watchdog budget) the cell runs
	// under.
	Config string
	// Seed roots the cell's fault-injection stream (0 when faults are
	// off).
	Seed uint64
}

// Hash folds the key into the 64-bit fault seed for the cell's scope.
// Field boundaries are marked so ("ab","c") and ("a","bc") differ.
func (k Key) Hash() uint64 {
	h := uint64(14695981039346656037)
	step := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	step(k.Workload)
	step(k.Uarch)
	step(k.Config)
	for i := 0; i < 64; i += 8 {
		h ^= (k.Seed >> i) & 0xff
		h *= 1099511628211
	}
	return h
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s/seed=%d", k.Workload, k.Uarch, k.Config, k.Seed)
}

// PanicError is the structured form a panicking task takes. Its Error
// string is deterministic (no goroutine IDs or addresses), so rendered
// output containing it stays byte-identical across runs; the stack is
// preserved separately for debugging.
type PanicError struct {
	// Label names the task ("cell <key>" or the Go label).
	Label string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack string
	// FaultPoint names the most recently fired fault-injection point in
	// the task's scope ("" when none fired).
	FaultPoint string
}

func (e *PanicError) Error() string {
	msg := fmt.Sprintf("%s: panic: %v", e.Label, e.Value)
	if e.FaultPoint != "" {
		msg += " [fault-point " + e.FaultPoint + "]"
	}
	return msg
}

// Task is one scheduled unit: a keyed (memoized) cell or an unkeyed
// helper task. Wait may be called any number of times from any
// goroutine.
type Task struct {
	eng   *Engine
	key   Key
	keyed bool
	label string
	fn    func() (any, error)
	// scope is the determinism context the task runs under: a fresh
	// per-cell scope for keyed tasks, the submitter's (shared) scope for
	// unkeyed ones.
	scope *simscope.Scope

	// done is closed exactly once, after val/err/cycles are final; the
	// close orders those writes before every waiter's reads.
	done   chan struct{}
	val    any
	err    error
	cycles uint64 // keyed tasks: simulated cycles attributed to the cell
}

func (t *Task) describe() string {
	if t.keyed {
		return "cell " + t.key.String()
	}
	return t.label
}

// queue holds the pending tasks under one mutex: keyed cells in
// submission order, then unkeyed tasks (see push for their order).
// closed is written under mu and may be read without it.
type queue struct {
	mu     sync.Mutex
	cond   sync.Cond
	cells  []*Task
	tasks  []*Task
	closed atomic.Bool
}

// push appends ts (all cells or all unkeyed tasks) and wakes workers.
// Unkeyed tasks that a running task spawns (nested) go ahead of the
// queued ones instead, so a waiting task helps with its own subtasks
// before it starts another queued task on its stack. It enqueues
// nothing and reports false once the queue is closed.
func (q *queue) push(ts []*Task, nested bool) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed.Load() {
		return false
	}
	switch {
	case ts[0].keyed:
		q.cells = append(q.cells, ts...)
	case nested:
		// Copy ts: it is the caller's result slice, which shift must not
		// clear. (Appending to ts[:len(ts):len(ts)] copies only when
		// there is something to append: with no task queued it returned
		// ts itself, and workers cleared the caller's results as they
		// popped them.)
		q.tasks = append(append(make([]*Task, 0, len(ts)+len(q.tasks)), ts...), q.tasks...)
	default:
		q.tasks = append(q.tasks, ts...)
	}
	if len(ts) == 1 {
		q.cond.Signal()
	} else {
		q.cond.Broadcast()
	}
	return true
}

// pop removes the oldest cell, else the oldest unkeyed task. When both
// are empty it returns nil, or with wait blocks until one is pushed or
// the queue closes.
func (q *queue) pop(wait bool) *Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if t := shift(&q.cells); t != nil {
			return t
		}
		if t := shift(&q.tasks); t != nil {
			return t
		}
		if !wait || q.closed.Load() {
			return nil
		}
		q.cond.Wait()
	}
}

// shift removes and returns the head of *s, or nil if it is empty.
func shift(s *[]*Task) *Task {
	if len(*s) == 0 {
		return nil
	}
	t := (*s)[0]
	(*s)[0] = nil
	*s = (*s)[1:]
	return t
}

// close marks the queue closed, wakes every worker and returns the
// tasks still pending.
func (q *queue) close() []*Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed.Store(true)
	pending := append(q.cells, q.tasks...)
	q.cells, q.tasks = nil, nil
	q.cond.Broadcast()
	return pending
}

// Engine is a worker pool fed by one pending-task queue, with a
// memoizing cell cache.
type Engine struct {
	jobs int

	// memoMu guards the canonicalizer and the memo: the display and
	// class slots of the keys the canonicalizer knows, and the keyed map
	// of every other key. A batch's whole classification loop is one
	// write section; a Submit memo hit is one read section. A folded
	// display key maps to its class's own task.
	memoMu       sync.RWMutex
	canon        Canonicalizer // nil: every key stands for itself
	displays     []*Task       // display slot -> class *Task
	classes      []*Task       // class slot -> *Task (dedup on)
	cache        map[Key]*Task // any other key -> *Task; nil until first needed
	hits, misses atomic.Uint64
	classHits    atomic.Uint64 // display first-sights folded onto an existing class
	slHits       atomic.Uint64 // class executions replayed from the second level

	// noDedup is the reference mode of the dedup tests in this package:
	// every display key simulates on its own, though still under its
	// canonical identity. Production engines leave it false.
	noDedup bool

	q        queue
	workerOf sync.Map // goroutine IDs of the workers (value unused)

	// second is the optional second-level cell cache (atomic.Value of
	// secondLevelBox). Install with SetSecondLevel before the first
	// Submit.
	second atomic.Value

	startOnce sync.Once
}

// New returns an engine with n workers (n < 1 means GOMAXPROCS). Workers
// start lazily on first submission.
func New(n int) *Engine {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	e := &Engine{jobs: n}
	e.q.cond.L = &e.q.mu
	return e
}

// Jobs returns the worker count.
func (e *Engine) Jobs() int { return e.jobs }

// secondLevelBox wraps a SecondLevel for atomic.Value (which rejects
// bare interface values of varying dynamic type).
type secondLevelBox struct{ sl SecondLevel }

// SetSecondLevel installs sl as the engine's second-level cell cache.
// Call before the first Submit; cells already resolved through the
// first-level memo are not retroactively published.
func (e *Engine) SetSecondLevel(sl SecondLevel) {
	e.second.Store(secondLevelBox{sl})
}

// secondLevel returns the installed second-level cache, or nil.
func (e *Engine) secondLevel() SecondLevel {
	if v := e.second.Load(); v != nil {
		return v.(secondLevelBox).sl
	}
	return nil
}

// SetCanonicalizer installs cz as the engine's display→canonical key
// fold and sizes the slot memo for it. Call before the first Submit:
// keys already resolved through the memo are not re-folded. Installing a
// canonicalizer switches cell fault seeds and second-level keys to the
// canonical key.
func (e *Engine) SetCanonicalizer(cz Canonicalizer) {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	e.canon, e.displays, e.classes = cz, nil, nil
	if cz != nil {
		d, c := cz.Slots()
		e.displays, e.classes = make([]*Task, d), make([]*Task, c)
	}
}

// fold returns k's canonical key with its display and class slots, or k
// itself and -1, -1 when no installed canonicalizer knows k. Call under
// memoMu.
func (e *Engine) fold(k Key) (canon Key, display, class int32) {
	if e.canon != nil {
		if canon, d, c, ok := e.canon.Fold(k); ok {
			return canon, d, c
		}
	}
	return k, -1, -1
}

// memoized returns the task memoized for display key k at display slot
// d (-1: by key), or nil. Call under memoMu.
func (e *Engine) memoized(k Key, d int32) *Task {
	if d >= 0 {
		return e.displays[d]
	}
	return e.cache[k]
}

// classTask returns the task of class slot c (-1: none), or nil. Call
// under memoMu.
func (e *Engine) classTask(c int32) *Task {
	if c < 0 {
		return nil
	}
	return e.classes[c]
}

// memoize records t as display key k's task (slot d; -1: by key). A
// first keyed entry sizes the map for the n cells left in its batch.
// Call with memoMu held for writing.
func (e *Engine) memoize(k Key, d int32, t *Task, n int) {
	if d >= 0 {
		e.displays[d] = t
		return
	}
	if e.cache == nil {
		e.cache = make(map[Key]*Task, n)
	}
	e.cache[k] = t
}

// Stats returns the cache hit and miss totals: misses is the number of
// distinct cells simulated, hits the number of Submits served from the
// cache. Both depend only on what was submitted, so they are identical
// across worker counts.
func (e *Engine) Stats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// StatsDetail breaks the cell cache down by level. All counters are
// functions of the submitted key multiset and the installed
// canonicalizer — identical across worker counts and scheduling.
type StatsDetail struct {
	// Hits / Misses are the display-keyed totals of Stats: repeats vs
	// first sights of a display key.
	Hits, Misses uint64
	// ClassHits counts display first-sights folded onto an already
	// scheduled equivalence class (canonicalizer installed).
	ClassHits uint64
	// SecondLevelHits counts class executions replayed from the
	// second-level store instead of simulated.
	SecondLevelHits uint64
	// Classes is the number of distinct class executions scheduled or
	// replayed (Misses - ClassHits).
	Classes uint64
	// Simulated is the number of cells actually executed on the pool
	// (Classes - SecondLevelHits).
	Simulated uint64
	// InlineFanouts is always 0: a folded display key shares its
	// class's task, so there is no fan-out left to count. The field
	// stays because the benchmark module reads it.
	InlineFanouts uint64
}

// String renders the breakdown as the one-line summary `run all -v`
// and gridbench print to stderr.
func (d StatsDetail) String() string {
	return fmt.Sprintf("cell cache: %d hits, %d misses; %d class hits, %d store hits, %d of %d classes simulated",
		d.Hits, d.Misses, d.ClassHits, d.SecondLevelHits, d.Simulated, d.Classes)
}

// StatsDetail returns the full cache breakdown (Stats plus dedup-class
// and second-level counters).
func (e *Engine) StatsDetail() StatsDetail {
	// A submission adds its misses before its class hits, and a leader's
	// miss before its second-level hit; loading in the reverse order
	// keeps the derived counters from going negative mid-batch.
	var d StatsDetail
	d.SecondLevelHits = e.slHits.Load()
	d.ClassHits = e.classHits.Load()
	d.Misses = e.misses.Load()
	d.Hits = e.hits.Load()
	d.Classes = d.Misses - d.ClassHits
	d.Simulated = d.Classes - d.SecondLevelHits
	return d
}

// Sub returns the counter delta d - prev. Every StatsDetail field is a
// monotone counter (the derived Classes/Simulated are differences of
// monotone counters that never go negative per submission), so callers
// bracket a phase with two StatsDetail() reads and Sub to attribute
// simulate-vs-replay work to that phase — how the optimizer reports
// cells simulated against a shared engine/store without a profiler.
func (d StatsDetail) Sub(prev StatsDetail) StatsDetail {
	return StatsDetail{
		Hits:            d.Hits - prev.Hits,
		Misses:          d.Misses - prev.Misses,
		ClassHits:       d.ClassHits - prev.ClassHits,
		SecondLevelHits: d.SecondLevelHits - prev.SecondLevelHits,
		Classes:         d.Classes - prev.Classes,
		Simulated:       d.Simulated - prev.Simulated,
	}
}

// Submit schedules the cell identified by key, or returns the existing
// task when the key was already submitted. fn must be pure with respect
// to key. A memo hit — every Submit of a warm engine — is answered under
// the memo's read lock by the fold and lookup SubmitBatch makes, and
// counted exactly as SubmitBatch counts it; anything else is a one-cell
// SubmitBatch, so both share one submission path and one counter
// contract. The cell's fault seed, activation snapshot and cycle budget
// are fixed at submission time, from the submitter's scope.
func (e *Engine) Submit(key Key, fn func() (any, error)) *Task {
	e.memoMu.RLock()
	_, d, _ := e.fold(key)
	t := e.memoized(key, d)
	e.memoMu.RUnlock()
	if t != nil {
		e.hits.Add(1)
		return t
	}
	return e.SubmitBatch([]BatchCell{{Key: key, Fn: fn}})[0]
}

// closedTask returns a pre-completed task carrying ErrClosed.
func (e *Engine) closedTask(label string) *Task {
	t := &Task{eng: e, label: label, err: ErrClosed, done: make(chan struct{})}
	close(t.done)
	return t
}

// Go schedules an unkeyed task (no memoization) that runs under the
// submitter's current scope — the building block for fanning one
// experiment's per-model work across workers while cycle charges and
// fault attribution keep flowing to the experiment. It is a one-task
// GoBatch.
func (e *Engine) Go(label string, fn func() (any, error)) *Task {
	return e.GoBatch([]BatchGo{{Label: label, Fn: fn}})[0]
}

func (e *Engine) start() {
	for i := 0; i < e.jobs; i++ {
		go e.worker()
	}
}

func (e *Engine) worker() {
	// Once per worker, and not through goroutineID: a worker that
	// starts late must not read a test's replacement of it.
	id := gls.ID()
	e.workerOf.Store(id, struct{}{})
	for t := e.q.pop(true); t != nil; t = e.q.pop(true) {
		e.run(t, id)
	}
	e.workerOf.Delete(id)
}

// run executes t under its scope (entering nil shadows any scope the
// helping worker happened to be carrying) and publishes the result. gid
// is the calling goroutine's ID, resolved once by the caller. A keyed
// task's scope is released afterwards, returning the cell's pooled
// resources.
func (e *Engine) run(t *Task, gid uint64) {
	restore := simscope.EnterG(gid, t.scope)
	body := func() {
		defer func() {
			if r := recover(); r != nil {
				pe := &PanicError{
					Label: t.describe(),
					Value: r,
					Stack: string(debug.Stack()),
				}
				if p, ok := t.scope.LastFired(); ok {
					pe.FaultPoint = faultinject.Point(p).String()
				}
				t.err = pe
			}
		}()
		t.val, t.err = t.fn()
	}
	if t.keyed {
		// Attribute profile samples to the cell: with many cells
		// interleaving on the worker pool, a flat -cpuprofile can only
		// say "StepBlock is hot"; the labels say which workload on which
		// microarchitecture under which configuration owns the samples
		// (pprof -tagfocus / the sample label view).
		pprof.Do(context.Background(), pprof.Labels(
			"workload", t.key.Workload,
			"uarch", t.key.Uarch,
			"config", t.key.Config,
		), func(context.Context) { body() })
	} else {
		body()
	}
	restore()
	if t.keyed {
		t.cycles = t.scope.Cycles()
		// Publish the freshly computed cell to the second-level store
		// before completing the task: a caller that drains every task and
		// then closes the store must find every cell already written.
		// Only clean successes are stored: errors, panics and
		// watchdog-stopped cells must re-run next time.
		if t.err == nil && t.val != nil {
			if sl := e.secondLevel(); sl != nil {
				sl.Put(t.key, t.val, t.cycles)
			}
		}
	}
	close(t.done)
	if t.keyed {
		// The cell owns its scope; unkeyed tasks borrow the submitter's.
		t.scope.Release()
	}
}

// Wait blocks until the task completes and returns its value and error.
// A worker that waits helps: it runs other pending tasks rather than
// idling, which is what keeps -jobs 1 live when an experiment task
// blocks on its own cells. For keyed tasks, the cell's simulated cycles
// are charged to sc, the waiter's scope, on every Wait — each requester
// pays for the cell as if it had simulated it, exactly as the serial
// engine-less code did, and the sum is independent of execution order.
// A nil sc charges no one; unkeyed tasks charge nothing.
//
// The caller names its scope instead of Wait looking it up, because the
// lookup is keyed by goroutine ID and resolving that ID parses a
// runtime.Stack. Wait resolves it only when the task is not done yet, to
// decide whether the waiter is a worker that should help, so a wait on a
// finished task — every cell of a warm replay — parses no stack.
func (t *Task) Wait(sc *simscope.Scope) (any, error) {
	return t.wait(sc, 0)
}

// WaitG is Wait for a caller that knows its own goroutine ID, gid, and
// charges the scope bound to gid. It is kept only because the benchmark
// module's sweep drain names it; in-tree callers pass their scope to
// Wait.
func (t *Task) WaitG(gid uint64) (any, error) {
	return t.wait(simscope.CurrentG(gid), gid)
}

// wait is the one wait path. gid is the calling goroutine's ID, or 0
// when the caller has not resolved it: it is then resolved only if t is
// still pending.
func (t *Task) wait(sc *simscope.Scope, gid uint64) (any, error) {
	select {
	case <-t.done:
	default:
		if gid == 0 {
			gid = goroutineID()
		}
		if _, ok := t.eng.workerOf.Load(gid); ok {
			t.eng.help(t, gid)
		}
		<-t.done
	}
	if t.keyed {
		sc.AddCycles(t.cycles)
	}
	return t.val, t.err
}

// help runs pending tasks until t completes or the queue is empty (t
// is then in flight on some other worker; the caller blocks).
func (e *Engine) help(t *Task, gid uint64) {
	for {
		select {
		case <-t.done:
			return
		default:
		}
		nt := e.q.pop(false)
		if nt == nil {
			return
		}
		e.run(nt, gid)
	}
}

// Close shuts the worker pool down: any task still queued (or submitted
// afterwards) completes with ErrClosed instead of being stranded — Wait
// never deadlocks across a Close — and idle workers exit. Idempotent,
// so a daemon's shutdown path can call it unconditionally. Call after
// draining for clean results; tasks failed by Close report ErrClosed,
// they are not cancelled mid-run.
func (e *Engine) Close() {
	for _, t := range e.q.close() {
		t.fail()
	}
}

// fail completes a task that will never run with ErrClosed.
func (t *Task) fail() {
	t.err = ErrClosed
	close(t.done)
	if t.keyed {
		t.scope.Release()
	}
}
