// Package checkpoint is a process-wide registry of immutable host-side
// snapshots, keyed by everything the snapshot depends on. Work that is
// a pure function of a cell-key prefix is built once and shared by
// every later cell with that prefix, whichever worker runs it. It holds
// four kinds of snapshot, each built and consumed by its owning
// package:
//
//   - kernel stub images (kernel/stubs|...): the assembled,
//     thunk-patched entry/exit program of one mitigation set;
//   - page-table templates (kernel/proctab|...): frozen mem.PTImage
//     KPT/UPT pairs that NewProcess forks copy-on-write;
//   - assembled workload programs (lebench/prog|..., parsec/prog|...,
//     lfs/prog|...);
//   - JS compiles (js/compile|...): the compiled program, shape table
//     and IC site list of one source under one mitigation set.
//
// Determinism contract. A cell that uses a snapshot must be
// byte-identical to a cell that builds it cold, including its
// fault-injection draw sequence. Every snapshot here is host-side
// construction: no simulated instruction runs and no injector draw
// happens while one is built or consumed, so the registry's warmth
// never shows in output.
//
// Concurrency. The registry is a sync.Map of per-key once-cells: under
// -jobs N, whichever worker reaches a key first builds the snapshot and
// everyone else blocks on it. Snapshot values are immutable after
// construction, so sharing across workers is safe, and the contents are
// a pure function of the key — whichever cell wins the race builds the
// same bytes.
package checkpoint

import (
	"sync"
	"sync/atomic"
)

// entry is one once-guarded snapshot slot.
type entry struct {
	once sync.Once
	v    any
}

// registry is the process-wide key → snapshot map.
var registry sync.Map

// hits/misses count registry consultations (host-side observability
// only — never printed to stdout, so output stays byte-identical with
// the registry cold or warm).
var hits, misses atomic.Uint64

// Stats reports how many Get calls were served from an existing
// snapshot and how many built one.
func Stats() (h, m uint64) { return hits.Load(), misses.Load() }

// Get returns the snapshot stored under key, building it with build on
// first use. All callers of the same key receive the same value; build
// runs exactly once per key for the life of the process.
//
// build must produce a value that is (a) immutable or only ever cloned
// from, and (b) a pure function of key: the key must encode every input
// the snapshot depends on.
func Get(key string, build func() any) any {
	e, loaded := registry.Load(key)
	if !loaded {
		e, loaded = registry.LoadOrStore(key, &entry{})
	}
	ent := e.(*entry)
	if loaded {
		hits.Add(1)
	} else {
		misses.Add(1)
	}
	ent.once.Do(func() { ent.v = build() })
	return ent.v
}

// Clear drops every snapshot, so the next Get of every key builds cold
// (tests and benchmarks that measure or compare cold registries).
func Clear() {
	registry.Range(func(k, _ any) bool {
		registry.Delete(k)
		return true
	})
	hits.Store(0)
	misses.Store(0)
}
