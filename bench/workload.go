package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"spectrebench/internal/grid"
	"spectrebench/internal/harness"
)

// size scales a run: the full sizes for the benchmark proper, toy sizes
// for the smoke test.
type size struct {
	cells    int      // cells of a sweep
	exps     []string // experiment IDs paper and serve run (nil = all)
	minIters int      // iterations a pass runs at least
	reqsA    int      // distinct /sweep requests in the serve request list
	reqsB    int      // distinct /optimize requests in the serve request list
}

// fullSize sizes the benchmark proper: the whole 172,032-cell lattice
// and every experiment.
var fullSize = size{cells: grid.MaxCells(), minIters: 4, reqsA: 256, reqsB: 8}

// experiments returns the experiments a run uses, in registry order.
func (sz size) experiments() []harness.Experiment {
	if sz.exps == nil {
		return harness.All()
	}
	var out []harness.Experiment
	for _, id := range sz.exps {
		if x, ok := harness.Lookup(id); ok {
			out = append(out, x)
		}
	}
	return out
}

// env is one workload run's configuration and its accumulated outcome.
type env struct {
	seed    int64
	jobs    int
	size    size
	work    string // scratch directory for stores
	metrics map[string]float64

	attempted, failed int
	problems          []string
}

// check records a failed correctness check: the operation counts as
// failed and the message is reported.
func (e *env) check(ok bool, format string, args ...any) bool {
	if !ok {
		e.failed++
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// series holds a pass's samples by name; "op" and "op2" are the
// end-to-end operations, in milliseconds.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// workload is one benchmark workload, run in its own process.
type workload interface {
	// setup prepares everything the timed iterations need; its wall
	// time is part of setup_s.
	setup(e *env) error
	// measure runs operations until d has passed and at least
	// e.size.minIters ran. tr is nil on untraced passes.
	measure(e *env, d time.Duration, tr *tracer) series
	// summarize derives workload-level metrics from an untraced pass.
	summarize(e *env, s series)
	// layers derives per-layer metrics from a traced pass and its spans
	// and runs the workload's traced-only probes.
	layers(e *env, s series, spans []span)
	close(e *env)
}

var workloadNames = []string{"paper", "sweep", "serve"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper":
		return &paper{}, nil
	case "sweep":
		return &sweep{}, nil
	case "serve":
		return &serve{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// loop calls step(i) for i = 0, 1, ... until d has passed and at least
// e.size.minIters steps ran, and times the reference loop before the
// first step and after every step (into s["ref"]). Each op and op2
// sample a step adds to s is also added, scaled to the reference host
// speed, under "op_ref" and "op2_ref": the sample times refMs over the
// mean of the two reference times around its step.
func loop(e *env, d time.Duration, s series, step func(i int)) {
	start := time.Now()
	before := refTime(e)
	s.add("ref", before)
	for i := 0; i < e.size.minIters || time.Since(start) < d; i++ {
		n, n2 := len(s["op"]), len(s["op2"])
		step(i)
		after := refTime(e)
		s.add("ref", after)
		scale := refMs / ((before + after) / 2)
		for _, v := range s["op"][n:] {
			s.add("op_ref", v*scale)
		}
		for _, v := range s["op2"][n2:] {
			s.add("op2_ref", v*scale)
		}
		before = after
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rng returns the workload's input generator. Seed 0 keeps the CLI's
// order wherever the workload permutes one.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func digest(s string) [32]byte { return sha256.Sum256([]byte(s)) }

// refMs is the reference loop's median time, run as refTime runs it, on
// the host the benchmark was calibrated on (2 vCPUs of an Intel Xeon,
// Go 1.24). It only sets the scale of the host-normalized times: with
// it they read as milliseconds on that host at its usual speed.
const refMs = 240.0

// refNode is what the reference loop allocates.
type refNode struct {
	next *refNode
	v    [6]uint64
}

// refSink keeps the reference loop's result live.
var refSink uint64

// refEnv names the environment variable that makes a benchmark process
// run the reference loop once, print its time in milliseconds and exit.
const refEnv = "SPECTREBENCH_REF_LOOP"

// refTime runs the reference loop in a process of its own and returns
// its time in milliseconds. In this process its garbage collector would
// also scan whatever the workload keeps live, so a change to the
// program's heap would change the scale. If the process fails, the run
// fails and the unscaled time is used.
func refTime(e *env) float64 {
	exe, err := os.Executable()
	if err != nil {
		e.check(false, "reference loop: %v", err)
		return refMs
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var v float64
	if err == nil {
		v, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	}
	if !e.check(err == nil && v > 0, "reference loop: %q, %v", out, err) {
		return refMs
	}
	return v
}

// refLoop times the reference loop and returns milliseconds. It is a
// fixed piece of pure Go, none of the program's code, that leans on what
// the simulator leans on: it allocates 1.5 million small objects in
// short chains and keeps a rotating 65,536-entry map of them, so the
// allocator, the garbage collector (which also runs on the other CPUs)
// and map probing all work. On a shared host the neighbours that slow
// the program slow this loop about as much: in series of `run all`
// batches whose medians over windows of six to ten batches spread by
// 16–45%, the medians of each batch's ratio to this loop's times around
// it spread by 2–10%.
func refLoop() float64 {
	runtime.GC()
	t0 := time.Now()
	m := make(map[uint64]*refNode)
	x := uint64(88172645463325252)
	var head *refNode
	for i := 0; i < 1_500_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &refNode{next: head}
		n.v[0] = x
		head = n
		if i%64 == 0 {
			head = nil
		}
		m[x&65535] = n
	}
	refSink += uint64(len(m))
	return ms(time.Since(t0))
}

// refLoopWarm runs the reference loop once to grow a new process's heap
// to its working size, then times it.
func refLoopWarm() float64 {
	refLoop()
	return refLoop()
}

// runtimeSample reads the Go runtime counters the go.* metrics are
// differences of.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeSample {
	ss := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ss)
	var r runtimeSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = ss[3].Value.Float64()
	}
	return r
}

// runtimeMetrics sets the go.* metrics from the counters read before
// and after a pass of iters operations.
func runtimeMetrics(e *env, before, after runtimeSample, iters int) {
	if iters < 1 {
		iters = 1
	}
	e.metrics["go.alloc_mb_per_iter"] = float64(after.allocBytes-before.allocBytes) / (1 << 20) / float64(iters)
	e.metrics["go.gc_cycles_per_iter"] = float64(after.gcCycles-before.gcCycles) / float64(iters)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		e.metrics["go.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// freshHeap collects garbage left by the previous iteration outside the
// timed region, so each iteration starts from the heap a new CLI
// process would have.
func freshHeap() { runtime.GC() }
