package main

import (
	"math/rand"
	"strings"
	"time"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/engine"
	"spectrebench/internal/harness"
)

// paper runs `run all` batches: every experiment of the registry,
// supervised on a fresh engine with an empty checkpoint registry, then
// rendered exactly as the CLI prints them. Every third batch runs at
// jobs = 1, the rest at jobs = nproc.
//
// At jobs = nproc the submission order decides which experiment ends
// last, and so the batch time: with a new random order per batch, the
// medians of ten runs spread by 16%, against 3% between runs in the
// CLI's order. Those batches therefore submit in the CLI's order, the
// one a `run all` user waits for. At jobs = 1 the order does not change
// the time, so those batches submit in a new order drawn from the seed,
// and every run also checks that the output does not depend on it.
type paper struct {
	exps  []harness.Experiment // registry order
	order *rand.Rand           // draws each jobs = 1 batch's submission order; nil keeps registry order
	ref   [32]byte             // digest of the warm-up batch's output
}

// batchOut is what one batch produced.
type batchOut struct {
	elapsed, render time.Duration
	digest          [32]byte
	results         []harness.Result
	stats           engine.StatsDetail
	ckHits, ckMiss  uint64
}

func (p *paper) setup(e *env) error {
	p.exps = e.size.experiments()
	if e.seed != 0 {
		p.order = rng(e.seed)
	}
	out := p.batch(e.jobs, nil, 0)
	p.ref = out.digest
	for _, r := range out.results {
		e.check(r.Status == harness.StatusOK, "paper: warm-up %s: status %s: %v", r.ID, r.Status, r.Err)
	}
	return nil
}

// batch runs one cold `run all` at the given worker count. The timed
// region is what a CLI user waits for: supervision of every experiment
// and rendering of the output.
func (p *paper) batch(jobs int, tr *tracer, id int64) batchOut {
	order := make([]int, len(p.exps))
	for i := range order {
		order[i] = i
	}
	if jobs == 1 && p.order != nil {
		order = p.order.Perm(len(p.exps))
	}
	exps := make([]harness.Experiment, len(p.exps))
	for k, i := range order {
		exps[k] = p.exps[i]
	}
	checkpoint.Clear()
	freshHeap()
	root := tr.begin("paper.batch", -1, id)
	t0 := time.Now()
	eng := engine.New(jobs)
	sp := tr.begin("harness.SuperviseEach", root, id)
	if tr != nil {
		for k := range exps {
			run, name := exps[k].Run, "harness.exp/"+exps[k].ID
			exps[k].Run = func() (*harness.Table, error) {
				i := tr.begin(name, sp, id)
				defer tr.end(i)
				return run()
			}
		}
	}
	res := harness.SuperviseEach(exps, harness.RunConfig{Engine: eng, Retries: -1}, nil)
	tr.end(sp)
	// Results come back in submission order; the output is rendered in
	// registry order, as the CLI prints it.
	results := make([]harness.Result, len(res))
	for k, i := range order {
		results[i] = res[k]
	}
	t1 := time.Now()
	sp = tr.begin("harness.RenderResults", root, id)
	text := harness.RenderResults(results, false, nil)
	tr.end(sp)
	t2 := time.Now()
	tr.end(root)
	out := batchOut{elapsed: t2.Sub(t0), render: t2.Sub(t1), digest: digest(text), results: results, stats: eng.StatsDetail()}
	out.ckHits, out.ckMiss = checkpoint.Stats()
	eng.Close()
	return out
}

func (p *paper) measure(e *env, d time.Duration, tr *tracer) series {
	s := series{}
	loop(e, d, s, func(i int) {
		// Only jobs = nproc batches are traced, so the per-layer numbers
		// describe one operation.
		jobs, op, t := e.jobs, "op", tr
		if i%3 == 2 {
			jobs, op, t = 1, "op2", nil
		}
		out := p.batch(jobs, t, int64(i))
		s.add(op, ms(out.elapsed))
		s.add("render_ms", ms(out.render))
		e.attempted += len(out.results)
		for _, r := range out.results {
			e.check(r.Status == harness.StatusOK, "paper: batch %d: %s: status %s: %v", i, r.ID, r.Status, r.Err)
		}
		e.check(out.digest == p.ref, "paper: batch %d (jobs %d): output differs from the warm-up batch", i, jobs)
		if op == "op" {
			var cycles uint64
			for _, r := range out.results {
				cycles += r.Cycles
			}
			s.add("cycles", float64(cycles))
			st := out.stats
			s.add("memo_hit_ratio", ratio(st.Hits, st.Hits+st.Misses))
			s.add("dedup_ratio", ratio(st.Misses, st.Classes))
			s.add("simulated", float64(st.Simulated))
			s.add("inline_fanouts", float64(st.InlineFanouts))
			s.add("ck_hit_ratio", ratio(out.ckHits, out.ckHits+out.ckMiss))
		}
	})
	return s
}

func (p *paper) summarize(e *env, s series) {
	runAll := median(s["op"]) / 1e3
	e.metrics["run_all_s"] = runAll
	e.metrics["sim.cycles"] = median(s["cycles"])
	if runAll > 0 {
		e.metrics["sim_mcycles_per_s"] = median(s["cycles"]) / 1e6 / runAll
	}
	if n := median(s["op"]); n > 0 {
		e.metrics["engine.jobs_speedup"] = median(s["op2"]) / n
	}
	e.metrics["harness.render_ms"] = median(s["render_ms"])
	e.metrics["engine.memo_hit_ratio"] = median(s["memo_hit_ratio"])
	e.metrics["engine.dedup_ratio"] = median(s["dedup_ratio"])
	e.metrics["engine.simulated"] = median(s["simulated"])
	e.metrics["engine.inline_fanouts"] = median(s["inline_fanouts"])
	e.metrics["checkpoint.hit_ratio"] = median(s["ck_hit_ratio"])
}

func (p *paper) layers(e *env, s series, spans []span) {
	// harness.last_exp_s: per traced batch, the longest experiment — the
	// critical path no worker count can shorten.
	longest := map[int64]float64{}
	for _, sp := range spans {
		if strings.HasPrefix(sp.name, "harness.exp/") {
			if d := float64(sp.end-sp.start) / 1e9; d > longest[sp.id] {
				longest[sp.id] = d
			}
		}
	}
	var ls []float64
	for _, v := range longest {
		ls = append(ls, v)
	}
	e.metrics["harness.last_exp_s"] = median(ls)

	// harness.exp.<id>_s: each experiment alone on a cold engine and an
	// empty checkpoint registry.
	for _, x := range p.exps {
		checkpoint.Clear()
		freshHeap()
		eng := engine.New(e.jobs)
		t0 := time.Now()
		r := harness.SuperviseEach([]harness.Experiment{x}, harness.RunConfig{Engine: eng, Retries: -1}, nil)
		e.metrics["harness.exp."+x.ID+"_s"] = time.Since(t0).Seconds()
		eng.Close()
		e.attempted++
		e.check(r[0].Status == harness.StatusOK, "paper: solo %s: status %s: %v", x.ID, r[0].Status, r[0].Err)
	}
}

func (p *paper) close(e *env) {}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
