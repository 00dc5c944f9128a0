// Command bench is spectrebench's benchmark: three workloads (paper,
// sweep, serve), end-to-end metrics from untraced runs
// and per-layer metrics from a traced run. Each workload runs in child
// processes of its own, one after another. See README.md.
//
// Usage, from the repository root:
//
//	sh bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace]
//	sh bench/run.sh -repeat N -out FILE [-workload NAME] [-seed N]
//	sh bench/run.sh -compare A.json B.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// setupRuns is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupRuns = 3

// childTimeout bounds one workload process.
const childTimeout = 170 * time.Second

func main() {
	if os.Getenv(refEnv) != "" {
		fmt.Println(refLoopWarm())
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// metricValue is one metric of a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last: whether every output check
// passed, how many operations were attempted and failed, and the
// metrics (end-to-end untraced, per-layer traced).
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: paper, sweep or serve (default: all three)")
	seed := fs.Int64("seed", 0, "input seed; 0 keeps the CLI's experiment and cell order")
	seconds := fs.Float64("seconds", 30, "how long one run measures")
	trace := fs.Bool("trace", false, "run the traced pass: per-layer metrics and bench/out/trace-<workload>.json")
	repeat := fs.Int("repeat", 1, "run each workload this many times, with seeds seed, seed+1, ...")
	out := fs.String("out", "", "also write every run's result to this JSON file (input to -compare)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	child := fs.String("child", "", "internal: run one workload in this process in the given mode")
	spawned := fs.Int64("spawned", 0, "internal: when the parent spawned this process (unix ns)")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, root, fs.Arg(0), fs.Arg(1))
	}
	names := workloadNames
	if *workload != "" {
		if _, err := newWorkload(*workload); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		names = []string{*workload}
	}
	if *child != "" {
		started := time.Now()
		if *spawned != 0 {
			started = time.Unix(0, *spawned)
		}
		rep := runChild(childOptions{
			workload: *workload, mode: *child, seed: *seed, seconds: *seconds, size: fullSize,
			started: started,
			work:    filepath.Join(root, ".bench_build", "work", strconv.Itoa(os.Getpid())),
			outDir:  filepath.Join(root, "bench", "out"),
		})
		line, _ := json.Marshal(rep)
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	rf := runFile{Host: thisHost()}
	code := 0
	for r := 0; r < *repeat; r++ {
		for _, name := range names {
			s := *seed + int64(r)
			res, err := runWorkload(stdout, name, s, *seconds, *trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			rf.Runs = append(rf.Runs, runRecord{Workload: name, Seed: s, Trace: *trace, result: res})
			line, _ := json.Marshal(res)
			fmt.Fprintf(stdout, "%s\n", line)
			if *out != "" {
				if err := writeJSON(*out, rf); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
			}
		}
	}
	return code
}

// normalizeArgs turns "-trace 0" and "-trace 1" into "-trace=0" and
// "-trace=1": a boolean flag takes its value only after "=", and the
// trace switch is also passed as a separate 0/1 argument.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// repoRoot finds the repository root from the working directory: the
// root itself (where run.sh starts the benchmark) or bench/ (go run .).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from bench/")
}

// runWorkload runs one workload in child processes and prints its
// human-readable report; the caller prints the result line.
func runWorkload(w io.Writer, name string, seed int64, seconds float64, trace bool) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "# %s: seed %d, %g s, jobs %d\n", name, seed, seconds, runtime.GOMAXPROCS(0))
	if trace {
		rep, err := spawn(name, modeTrace, seed, seconds)
		if err != nil {
			return res, err
		}
		problems := addReport(&res, rep, nil)
		rep.Metrics["setup_wall_s"] = rep.SetupS
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{rep.Metrics[d.name], d.unit}
		}
		res.Metrics["error_rate"] = metricValue{errorRate(res), "ratio"}
		printReport(w, name, res, rep, nil, problems)
		return res, nil
	}
	var problems []string
	var wall, scaled []float64 // set-up times as measured and at the reference host speed
	var rep childReport
	for i := 0; i < setupRuns; i++ {
		// Every process sets up; the last one also measures.
		mode := modeSetup
		if i == setupRuns-1 {
			mode = modeRun
		}
		var err error
		if rep, err = spawn(name, mode, seed, seconds); err != nil {
			return res, err
		}
		problems = addReport(&res, rep, problems)
		wall = append(wall, rep.SetupS)
		if rep.SetupRefMs > 0 {
			scaled = append(scaled, rep.SetupS*refMs/rep.SetupRefMs)
		}
	}
	res.Metrics["setup_s"] = metricValue{median(scaled), "s"}
	res.Metrics["op_ms"] = metricValue{rep.Metrics["op_ms"], "ms"}
	res.Metrics["op2_ms"] = metricValue{rep.Metrics["op2_ms"], "ms"}
	rep.Metrics["setup_wall_s"] = median(wall)
	rep.Metrics["error_rate"] = errorRate(res)
	printReport(w, name, res, rep, wall, problems)
	return res, nil
}

// addReport adds a child's operations to the result and returns the
// failed checks so far.
func addReport(res *result, rep childReport, problems []string) []string {
	res.Attempted += rep.Attempted
	res.Failed += rep.Failed
	res.Correct = res.Attempted > 0 && res.Failed == 0
	return append(problems, rep.Problems...)
}

func errorRate(res result) float64 {
	if res.Attempted == 0 {
		return 1
	}
	return float64(res.Failed) / float64(res.Attempted)
}

// printReport writes every metric by name and unit, then any failed
// checks.
func printReport(w io.Writer, name string, res result, rep childReport, setups []float64, problems []string) {
	ops := opNames[name]
	fmt.Fprintf(w, "  op_ms: %s; op2_ms: %s\n", ops[0], ops[1])
	if setups != nil {
		fmt.Fprintf(w, "  set-up wall times (s): %.3f\n", setups)
	}
	for _, op := range []string{"op", "op_ref", "op2", "op2_ref"} {
		switch xs := rep.Samples[op]; {
		case len(xs) > 24:
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "  %s samples, ms (%d): min %.2f, q1 %.2f, median %.2f, q3 %.2f, max %.2f\n",
				op, len(xs), percentile(xs, 0), q1, median(xs), q3, percentile(xs, 100))
		case len(xs) > 0:
			fmt.Fprintf(w, "  %s samples, ms (%d): %.1f\n", op, len(xs), xs)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := res.Metrics[d.name]
			if !ok {
				if x, found := rep.Metrics[d.name]; found {
					v, ok = metricValue{x, d.unit}, true
				}
			}
			if ok {
				fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, v.Value, d.unit)
			}
		}
	}
	if rep.SelfMs != nil {
		names := make([]string, 0, len(rep.SelfMs))
		for n := range rep.SelfMs {
			names = append(names, n)
		}
		sort.Slice(names, func(a, b int) bool { return rep.SelfMs[names[a]] > rep.SelfMs[names[b]] })
		fmt.Fprintf(w, "  self time per span, traced pass:\n")
		for _, n := range names {
			fmt.Fprintf(w, "    %-30s %12.2f ms\n", n, rep.SelfMs[n])
		}
	}
	fmt.Fprintf(w, "  %d operations, %d failed\n", res.Attempted, res.Failed)
	for _, p := range problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}

// spawn runs one child process of this binary and returns its report.
func spawn(name, mode string, seed int64, seconds float64) (childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-child", mode, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10),
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rep childReport
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		if runErr != nil {
			return rep, fmt.Errorf("%s process: %v", mode, runErr)
		}
		return rep, fmt.Errorf("%s process: no report: %v", mode, err)
	}
	return rep, nil
}

// hostInfo identifies the machine a result file was recorded on.
type hostInfo struct {
	Nproc int    `json:"nproc"`
	Go    string `json:"go"`
	OS    string `json:"os"`
	Arch  string `json:"arch"`
}

func thisHost() hostInfo {
	return hostInfo{Nproc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	Host hostInfo    `json:"host"`
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
