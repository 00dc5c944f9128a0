package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childReport is what one workload process reports to the parent, as
// the last line of its standard output.
type childReport struct {
	SetupS float64 `json:"setup_s"`
	// SetupRefMs is the reference loop's time right after set-up.
	SetupRefMs float64            `json:"setup_ref_ms"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	// Samples are the untraced pass's op and op2 times in milliseconds,
	// as measured and (op_ref, op2_ref) at the reference host speed.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// SelfMs is the traced pass's self time per span name.
	SelfMs map[string]float64 `json:"self_ms,omitempty"`
}

// Child modes: set up and exit (one more setup_s sample), set up and
// measure untraced, or set up and run the traced pass.
const (
	modeSetup = "setup"
	modeRun   = "run"
	modeTrace = "trace"
)

// childOptions configures one workload run inside one process.
type childOptions struct {
	workload string
	mode     string
	seed     int64
	seconds  float64
	size     size
	started  time.Time // when the process was spawned: setup_s counts from here
	work     string    // scratch directory, removed at the end
	outDir   string    // where the traced run writes its trace file
}

// runChild runs one workload in this process.
func runChild(o childOptions) (rep childReport) {
	rep.Metrics = map[string]float64{}
	e := &env{seed: o.seed, jobs: runtime.GOMAXPROCS(0), size: o.size, work: o.work, metrics: rep.Metrics}
	defer func() {
		rep.Attempted, rep.Failed, rep.Problems = e.attempted, e.failed, e.problems
		os.RemoveAll(o.work)
	}()
	w, err := newWorkload(o.workload)
	if err == nil {
		err = os.MkdirAll(o.work, 0o777)
	}
	if err == nil {
		err = w.setup(e)
		defer w.close(e)
	}
	rep.SetupS = time.Since(o.started).Seconds()
	if err != nil {
		e.check(false, "%s: setup: %v", o.workload, err)
		return rep
	}
	rep.SetupRefMs = refTime(e)
	if o.mode == modeSetup {
		return rep
	}
	d := time.Duration(o.seconds * float64(time.Second))
	switch o.mode {
	case modeRun:
		s := untraced(e, w, d)
		rep.Samples = map[string][]float64{}
		for _, k := range []string{"op", "op2", "op_ref", "op2_ref"} {
			rep.Samples[k] = s[k]
		}
	case modeTrace:
		// The untraced half measures what the end-to-end run measures;
		// the traced half gives the per-layer numbers and, against the
		// first half, the tracing overhead.
		un := untraced(e, w, d/2)
		tr := newTracer()
		prof := filepath.Join(o.work, "cpu.pprof")
		stop := startProfile(prof)
		ts := w.measure(e, d/2, tr)
		stop()
		spans := tr.snapshot()
		w.layers(e, ts, spans)
		if m := median(un["op_ref"]); m > 0 {
			e.metrics["trace.overhead_pct"] = (median(ts["op_ref"])/m - 1) * 100
		}
		profileShares(e, prof)
		if err := os.MkdirAll(o.outDir, 0o777); err == nil {
			path := filepath.Join(o.outDir, "trace-"+o.workload+".json")
			if err := writeChromeTrace(path, spans); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			}
		}
		rep.SelfMs = map[string]float64{}
		for name, ns := range selfTimes(spans) {
			rep.SelfMs[name] = float64(ns) / 1e6
		}
	}
	return rep
}

// untraced measures one pass without spans and sets the end-to-end
// operation times, the go.* metrics and the workload's own summary.
func untraced(e *env, w workload, d time.Duration) series {
	before := readRuntime()
	s := w.measure(e, d, nil)
	runtimeMetrics(e, before, readRuntime(), len(s["op"])+len(s["op2"]))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		e.metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	e.metrics["op_ms"] = median(s["op_ref"])
	e.metrics["op2_ms"] = median(s["op2_ref"])
	e.metrics["op_wall_ms"] = median(s["op"])
	e.metrics["op2_wall_ms"] = median(s["op2"])
	e.metrics["host.ref_ms"] = median(s["ref"])
	w.summarize(e, s)
	return s
}

// startProfile starts a CPU profile into path and returns its stop
// function (a no-op when the profile could not start).
func startProfile(path string) func() {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
		return func() {}
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
		f.Close()
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// profileShares sets prof.<pkg>_pct: the share of flat CPU samples per
// package, read from `go tool pprof -top`.
func profileShares(e *env, path string) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: go tool pprof: %v (prof.* metrics left at 0)\n", err)
		return
	}
	for pkg, pct := range flatShares(out) {
		e.metrics["prof."+pkg+"_pct"] = pct
	}
}

// flatShares sums the flat% column of `go tool pprof -top` output by
// package (see profPackage).
func flatShares(top []byte) map[string]float64 {
	shares := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(top))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[profPackage(strings.Join(f[5:], " "))] += pct
	}
	return shares
}

// profPackage maps a profiled function name to one of profPackages.
func profPackage(fn string) string {
	const internal = "spectrebench/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, p := range profPackages {
			if p == rest {
				return p
			}
		}
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
