package cache

import (
	"math/rand"
	"sort"
	"testing"
)

// withModes runs f once per implementation as subtests: "fast"
// (epoch-stamped flushes, MRU hints) and "eager" (the reference). The
// two must be observationally identical, so every regression test in
// this file runs against both.
func withModes(t *testing.T, f func(t *testing.T, eager bool)) {
	for _, mode := range []struct {
		name  string
		eager bool
	}{{"fast", false}, {"eager", true}} {
		t.Run(mode.name, func(t *testing.T) { f(t, mode.eager) })
	}
}

// setEager selects the implementation for every level of hierarchy c.
func setEager(c *Cache, eager bool) *Cache {
	for l := c; l != nil; l = l.Next {
		l.eager = eager
	}
	return c
}

// TestEpochFlushAllObservability pins the post-FlushAll contract the
// L1TF leak model depends on: after the O(1) epoch bump, Probe must
// report every line absent, Contents must be empty, and a re-access
// must pay the full miss latency — exactly as the eager clear behaves.
func TestEpochFlushAllObservability(t *testing.T) {
	withModes(t, func(t *testing.T, eager bool) {
		c := setEager(newHierarchy(), eager)
		for pa := uint64(0); pa < 8*LineSize; pa += LineSize {
			c.Access(pa)
		}
		c.FlushAll() // L1 only, as the L1TF mitigation does on VM entry
		for pa := uint64(0); pa < 8*LineSize; pa += LineSize {
			if c.Probe(pa) {
				t.Fatalf("L1 probe of %#x still hits after FlushAll", pa)
			}
		}
		if got := c.Contents(); len(got) != 0 {
			t.Fatalf("L1 Contents after FlushAll = %v, want empty", got)
		}
		// Inner levels are untouched: the refill comes from L2, and the
		// leak model sees the refilled line again.
		if lat := c.Access(0); lat != 4+12 {
			t.Fatalf("post-FlushAll refill = %d cycles, want 16", lat)
		}
		if !c.Probe(0) {
			t.Fatal("refilled line not visible to Probe")
		}
	})
}

// TestEpochResetObservability checks Reset against the pool contract: a
// reset hierarchy must be indistinguishable from a new one (Probe,
// Contents, stats, latencies), whichever invalidation mode is active.
func TestEpochResetObservability(t *testing.T) {
	withModes(t, func(t *testing.T, eager bool) {
		c := setEager(newHierarchy(), eager)
		for pa := uint64(0); pa < 32*LineSize; pa += LineSize {
			c.Access(pa)
			c.Access(pa)
		}
		c.Reset()
		fresh := setEager(newHierarchy(), eager)
		for lvl, flvl := c, fresh; lvl != nil; lvl, flvl = lvl.Next, flvl.Next {
			if lvl.Hits != 0 || lvl.Misses != 0 {
				t.Fatalf("%s stats after Reset = %d/%d, want 0/0", lvl.Name, lvl.Hits, lvl.Misses)
			}
			if got := lvl.Contents(); len(got) != 0 {
				t.Fatalf("%s Contents after Reset = %v, want empty", lvl.Name, got)
			}
			if lvl.Probe(0) != flvl.Probe(0) {
				t.Fatalf("%s Probe diverges from a fresh hierarchy", lvl.Name)
			}
		}
		// The first access sequence after Reset must produce the same
		// latencies as on a fresh hierarchy (dead ways claimed first).
		for pa := uint64(0); pa < 8*LineSize; pa += LineSize {
			if got, want := c.Access(pa), fresh.Access(pa); got != want {
				t.Fatalf("post-Reset access %#x = %d cycles, fresh = %d", pa, got, want)
			}
		}
	})
}

// TestEpochFlushTargetsDeadLines checks Flush (clflush) after FlushAll:
// clearing the valid bit of an epoch-dead line must be harmless, and a
// line refilled after the flush must be evictable by Flush as usual.
func TestEpochFlushTargetsDeadLines(t *testing.T) {
	withModes(t, func(t *testing.T, eager bool) {
		c := setEager(newHierarchy(), eager)
		c.Access(0x9000)
		c.FlushAll()
		c.Flush(0x9000) // line is already dead at L1; must not resurrect anything
		if c.Probe(0x9000) {
			t.Fatal("Flush of a dead line made it live")
		}
		if c.Next.Probe(0x9000) {
			t.Fatal("Flush must still evict inner levels")
		}
		c.Access(0x9000)
		c.Flush(0x9000)
		if c.Probe(0x9000) || c.Next.Probe(0x9000) {
			t.Fatal("Flush failed on a line refilled after FlushAll")
		}
	})
}

// TestEpochInsertReclaimsDeadWays fills a set, epoch-kills it, and
// checks the replacement scan claims the dead ways in way order rather
// than evicting by stale LRU timestamps — the behaviour the eager
// implementation gets for free from cleared valid bits.
func TestEpochInsertReclaimsDeadWays(t *testing.T) {
	withModes(t, func(t *testing.T, eager bool) {
		c := setEager(New(100, Config{Name: "T", SizeBytes: 256, Ways: 2, HitLatency: 1}), eager)
		// Two lines in set 0 (stride = sets*LineSize = 128).
		c.Access(0)
		c.Access(128)
		c.FlushAll()
		c.Access(256) // must claim a dead way, not cohabit with ghosts
		if !c.Probe(256) {
			t.Fatal("post-flush insert lost")
		}
		if c.Probe(0) || c.Probe(128) {
			t.Fatal("flushed lines resurrected by a later insert")
		}
		got := c.Contents()
		if len(got) != 1 || got[0] != 256 {
			t.Fatalf("Contents = %v, want [256]", got)
		}
	})
}

// cacheOp is one step of the differential fuzz script.
type cacheOp struct {
	kind int // 0 access, 1 touch, 2 flush, 3 flushAll, 4 reset, 5 probe
	pa   uint64
}

// applyCacheOp runs one op and returns an observation value that must
// match between the two implementations (latency, probe result, or 0).
func applyCacheOp(c *Cache, op cacheOp) uint64 {
	switch op.kind {
	case 0:
		return c.Access(op.pa)
	case 1:
		c.Touch(op.pa)
	case 2:
		c.Flush(op.pa)
	case 3:
		c.FlushAll()
	case 4:
		c.Reset()
	case 5:
		if c.Probe(op.pa) {
			return 1
		}
	}
	return 0
}

// compareHierarchies fails on any observable divergence: per-level
// stats and the sorted Contents of every level.
func compareHierarchies(t *testing.T, ref, fast *Cache, step int) {
	t.Helper()
	for rl, fl := ref, fast; rl != nil; rl, fl = rl.Next, fl.Next {
		if rl.Hits != fl.Hits || rl.Misses != fl.Misses {
			t.Fatalf("step %d: %s stats diverged: eager %d/%d fast %d/%d",
				step, rl.Name, rl.Hits, rl.Misses, fl.Hits, fl.Misses)
		}
		rc, fc := rl.Contents(), fl.Contents()
		sort.Slice(rc, func(i, j int) bool { return rc[i] < rc[j] })
		sort.Slice(fc, func(i, j int) bool { return fc[i] < fc[j] })
		if len(rc) != len(fc) {
			t.Fatalf("step %d: %s contents diverged: eager %v fast %v", step, rl.Name, rc, fc)
		}
		for i := range rc {
			if rc[i] != fc[i] {
				t.Fatalf("step %d: %s contents diverged: eager %v fast %v", step, rl.Name, rc, fc)
			}
		}
	}
}

// TestEpochDifferentialFuzz drives random interleavings of Access,
// Touch, Flush, FlushAll, Reset and Probe through an epoch-stamped and
// an eager-clear hierarchy and requires identical observations
// throughout: every latency, every probe answer, all statistics, and
// the exact set of live lines.
func TestEpochDifferentialFuzz(t *testing.T) {
	mk := func(eager bool) *Cache {
		// Tiny geometry so the fuzz actually collides: 4 sets × 2 ways
		// over 8 sets × 4 ways.
		return setEager(New(200,
			Config{Name: "T1", SizeBytes: 512, Ways: 2, HitLatency: 3},
			Config{Name: "T2", SizeBytes: 2048, Ways: 4, HitLatency: 11},
		), eager)
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		ref := mk(true)
		fast := mk(false)
		for step := 0; step < 2000; step++ {
			op := cacheOp{pa: uint64(r.Intn(64)) * 32} // 32 lines, split offsets
			switch k := r.Intn(100); {
			case k < 40:
				op.kind = 0 // access
			case k < 55:
				op.kind = 1 // touch
			case k < 65:
				op.kind = 2 // flush
			case k < 72:
				op.kind = 3 // flushAll
			case k < 75:
				op.kind = 4 // reset
			default:
				op.kind = 5 // probe
			}
			refObs := applyCacheOp(ref, op)
			fastObs := applyCacheOp(fast, op)
			if refObs != fastObs {
				t.Fatalf("seed %d step %d: op %d pa %#x observed eager %d fast %d",
					seed, step, op.kind, op.pa, refObs, fastObs)
			}
			if step%97 == 0 {
				compareHierarchies(t, ref, fast, step)
			}
		}
		compareHierarchies(t, ref, fast, 2000)
	}
}
