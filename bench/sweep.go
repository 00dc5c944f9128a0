package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/engine"
	"spectrebench/internal/gls"
	"spectrebench/internal/grid"
	"spectrebench/internal/store"
)

// sweep runs gridbench-shaped sweeps of the whole boot-param lattice
// through a store, alternating two kinds. A cold sweep starts from an
// empty store directory, a fresh engine and an empty checkpoint
// registry, as a new CLI process with a new -store does. A warm sweep
// reopens the store the set-up sweep filled and replays every cell from
// it with a fresh engine. The two use the same layers in opposite
// directions (simulation and store writes against store reads and
// fan-out), so a gain on one side that costs the other shows.
type sweep struct {
	dir  string   // the store warm sweeps replay
	ref  [32]byte // digest of the set-up sweep's output
	runs int      // store directories created so far
}

// sweepOut is what one sweep produced.
type sweepOut struct {
	elapsed, open, submit, drain, close time.Duration
	digest                              [32]byte
	failed                              int
	stats                               engine.StatsDetail
	store                               store.Stats
	diskMB                              float64
}

func (s *sweep) setup(e *env) error {
	s.dir = s.newDir(e)
	out := s.run(e, false, s.dir, nil, 0)
	if out.failed > 0 {
		return fmt.Errorf("sweep: set-up sweep: %d cells failed", out.failed)
	}
	s.ref = out.digest
	return nil
}

func (s *sweep) newDir(e *env) string {
	s.runs++
	return filepath.Join(e.work, fmt.Sprintf("store-%d", s.runs))
}

// run performs one sweep of the lattice into dir and returns its
// timings and its output's digest. The timed region is everything
// `spectrebench -store DIR -cells N gridbench` does: enumerate the
// cells, open the store, submit, drain and format every line, close the
// store.
func (s *sweep) run(e *env, warm bool, dir string, tr *tracer, id int64) sweepOut {
	if !warm {
		checkpoint.Clear()
	}
	freshHeap()
	eng := engine.New(e.jobs)
	n := e.size.cells
	var out sweepOut

	kind := "sweep.cold"
	if warm {
		kind = "sweep.warm"
	}
	t0 := time.Now()
	root := tr.begin(kind, -1, id)
	sp := tr.begin("grid.Cells", root, id)
	cells := grid.Cells(n, 0)
	eng.SetCanonicalizer(grid.Canonicalizer(cells))
	tr.end(sp)
	t1 := time.Now()
	sp = tr.begin("store.Open", root, id)
	st, err := store.Open(dir, store.Options{})
	tr.end(sp)
	if err != nil {
		e.check(false, "sweep: store open: %v", err)
		eng.Close()
		out.failed = n
		return out
	}
	eng.SetSecondLevel(secondLevel(st, tr, root, id))
	t2 := time.Now()

	// -seed rotates the submission order; the rotation keeps the
	// lattice's uarch interleave, so every seed gives the planner the
	// same locality to work with.
	rot := 0
	if e.seed != 0 && n >= 8 {
		rot = rng(e.seed).Intn(n/8) * 8
	}
	bcells := make([]engine.BatchCell, n)
	for k := range bcells {
		c := cells[(k+rot)%n]
		fn := c.Run
		if tr != nil {
			run := fn
			fn = func() (any, error) {
				start := time.Now()
				v, err := run()
				tr.record("grid.cell", root, id, start, time.Now())
				return v, err
			}
		}
		bcells[k] = engine.BatchCell{Key: c.Display, Fn: fn}
	}
	sp = tr.begin("engine.SubmitBatch", root, id)
	tasks := eng.SubmitBatch(bcells)
	tr.end(sp)
	t3 := time.Now()

	// The drain is gridbench's: one goroutine-identity parse for the
	// whole loop and Task.WaitG per task. Task.Wait would parse it once
	// per cell and, on a warm replay, time that parse instead of the
	// replay path.
	sp = tr.begin("drain", root, id)
	vals := make([]float64, n)
	errs := make([]error, n)
	bw := bufio.NewWriterSize(io.Discard, 1<<16)
	gid := gls.ID()
	line := make([]byte, 0, 128)
	for k, t := range tasks {
		c := cells[(k+rot)%n]
		v, err := t.WaitG(gid)
		if err != nil {
			out.failed++
			errs[(k+rot)%n] = err
			fmt.Fprintf(bw, "%s %s error: %v\n", c.Display.Uarch, c.Display.Config, err)
			continue
		}
		f := v.(float64)
		vals[(k+rot)%n] = f
		line = append(line[:0], c.Display.Uarch...)
		line = append(line, ' ')
		line = append(line, c.Display.Config...)
		line = append(line, " = "...)
		line = strconv.AppendFloat(line, f, 'f', 2, 64)
		line = append(line, " cyc\n"...)
		bw.Write(line)
	}
	fmt.Fprintf(bw, "grid: %d cells, %d classes, %d failed\n", n, grid.Classes(cells), out.failed)
	bw.Flush()
	tr.end(sp)
	t4 := time.Now()

	sp = tr.begin("store.Close", root, id)
	out.store = st.Stats()
	if err := st.Close(); err != nil {
		e.check(false, "sweep: store close: %v", err)
	}
	tr.end(sp)
	t5 := time.Now()
	tr.end(root)

	out.elapsed, out.open = t5.Sub(t0), t2.Sub(t1)
	out.submit, out.drain, out.close = t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)
	out.stats = eng.StatsDetail()
	eng.Close()
	out.diskMB = dirMB(dir)
	out.digest = gridDigest(cells, vals, errs)
	return out
}

// gridDigest hashes the lines `spectrebench -cells N gridbench` prints
// for these cells, in lattice order.
func gridDigest(cells []grid.Cell, vals []float64, errs []error) [32]byte {
	var b strings.Builder
	failed := 0
	for i, c := range cells {
		if errs[i] != nil {
			failed++
			fmt.Fprintf(&b, "%s %s error: %v\n", c.Display.Uarch, c.Display.Config, errs[i])
			continue
		}
		b.WriteString(c.Display.Uarch + " " + c.Display.Config + " = ")
		b.WriteString(strconv.FormatFloat(vals[i], 'f', 2, 64))
		b.WriteString(" cyc\n")
	}
	fmt.Fprintf(&b, "grid: %d cells, %d classes, %d failed\n", len(cells), grid.Classes(cells), failed)
	return digest(b.String())
}

// measure alternates cold sweeps (op) and warm replays (op2). Series of
// warm replays carry the "replay_" prefix.
func (s *sweep) measure(e *env, d time.Duration, tr *tracer) series {
	ss := series{}
	loop(e, d, ss, func(i int) {
		warm := i%2 == 1
		op, pre, dir := "op", "", s.dir
		if warm {
			op, pre = "op2", "replay_"
		} else {
			dir = s.newDir(e)
		}
		out := s.run(e, warm, dir, tr, int64(i))
		if !warm {
			os.RemoveAll(dir)
		}
		ss.add(op, ms(out.elapsed))
		e.attempted += e.size.cells
		e.failed += out.failed
		e.check(out.digest == s.ref, "sweep: sweep %d (warm %v): output differs from the set-up sweep", i, warm)
		if warm {
			e.check(out.stats.Simulated == 0, "sweep: replay %d: %d cells simulated", i, out.stats.Simulated)
		}
		st := out.stats
		ss.add(pre+"open_ms", ms(out.open))
		ss.add(pre+"submit_ms", ms(out.submit))
		ss.add(pre+"drain_ms", ms(out.drain))
		ss.add(pre+"close_ms", ms(out.close))
		ss.add(pre+"inline_fanouts", float64(st.InlineFanouts))
		ss.add(pre+"memo_hit_ratio", ratio(st.Hits, st.Hits+st.Misses))
		ss.add(pre+"dedup_ratio", ratio(st.Misses, st.Classes))
		ss.add(pre+"simulated", float64(st.Simulated))
		ss.add(pre+"store_hits", float64(st.SecondLevelHits))
		ss.add(pre+"disk_mb", out.diskMB)
		ss.add(pre+"sidecar_hit_ratio", ratio(out.store.SidecarHits, out.store.SidecarHits+out.store.SidecarMisses))
		ss.add(pre+"put_errors", float64(out.store.PutErrors))
	})
	return ss
}

// summarize takes each metric from the kind of sweep that exercises it:
// write-side numbers from cold sweeps, read-side numbers from replays.
func (s *sweep) summarize(e *env, ss series) {
	for name, key := range map[string]string{"cells_per_s": "op", "replay_cells_per_s": "op2"} {
		if m := median(ss[key]); m > 0 {
			e.metrics[name] = float64(e.size.cells) / (m / 1e3)
		}
	}
	for name, key := range map[string]string{
		"engine.submit_ms":        "submit_ms",
		"engine.drain_ms":         "drain_ms",
		"engine.replay_submit_ms": "replay_submit_ms",
		"engine.replay_drain_ms":  "replay_drain_ms",
		"engine.inline_fanouts":   "replay_inline_fanouts",
		"engine.memo_hit_ratio":   "memo_hit_ratio",
		"engine.dedup_ratio":      "dedup_ratio",
		"engine.simulated":        "simulated",
		"engine.store_hits":       "replay_store_hits",
		"store.open_ms":           "replay_open_ms",
		"store.close_ms":          "close_ms",
		"store.disk_mb":           "disk_mb",
		"store.sidecar_hit_ratio": "replay_sidecar_hit_ratio",
		"store.put_errors":        "put_errors",
	} {
		e.metrics[name] = median(ss[key])
	}
}

func (s *sweep) layers(e *env, ss series, spans []span) {
	// Spans of one sweep share its id. Per sweep: whether it was a
	// replay, when the batch was submitted, when the drain ended, how
	// long the workers ran cells and how long the store's batch calls
	// took.
	type perSweep struct {
		warm                  bool
		submit, drained, busy int64
		getBatch, linkBatch   float64
	}
	sweeps := map[int64]*perSweep{}
	at := func(id int64) *perSweep {
		if sweeps[id] == nil {
			sweeps[id] = &perSweep{}
		}
		return sweeps[id]
	}
	for _, sp := range spans {
		switch sp.name {
		case "sweep.warm":
			at(sp.id).warm = true
		case "engine.SubmitBatch":
			at(sp.id).submit = sp.start
		case "drain":
			at(sp.id).drained = sp.end
		}
	}
	var wait, run, puts []float64
	for _, sp := range spans {
		d := sp.end - sp.start
		switch sp.name {
		case "grid.cell":
			wait = append(wait, float64(sp.start-at(sp.id).submit)/1e6)
			run = append(run, float64(d)/1e6)
			at(sp.id).busy += d
		case "store.Put":
			puts = append(puts, float64(d)/1e3)
		case "store.GetBatch":
			at(sp.id).getBatch += float64(d) / 1e6
		case "store.PutLinkBatch":
			at(sp.id).linkBatch += float64(d) / 1e6
		}
	}
	var util, gets, links []float64
	for _, p := range sweeps {
		if p.warm {
			gets = append(gets, p.getBatch)
			continue
		}
		if w := p.drained - p.submit; w > 0 {
			util = append(util, float64(p.busy)/float64(w)/float64(e.jobs))
		}
		links = append(links, p.linkBatch)
	}
	e.metrics["engine.queue_wait_ms_p50"] = percentile(wait, 50)
	e.metrics["engine.queue_wait_ms_p99"] = percentile(wait, 99)
	e.metrics["grid.cell_run_ms_p50"] = percentile(run, 50)
	e.metrics["grid.cell_run_ms_p99"] = percentile(run, 99)
	e.metrics["engine.utilization"] = median(util)
	e.metrics["store.put_us_p50"] = percentile(puts, 50)
	e.metrics["store.put_us_p99"] = percentile(puts, 99)
	e.metrics["store.get_batch_ms"] = median(gets)
	e.metrics["store.link_batch_ms"] = median(links)
}

func (s *sweep) close(e *env) {}
