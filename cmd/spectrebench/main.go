// Command spectrebench reproduces the tables and figures of
// "Performance Evolution of Mitigating Transient Execution Attacks"
// (Behrens, Belay, Kaashoek — EuroSys 2022) on the repository's
// simulated CPUs.
//
// Usage:
//
//	spectrebench list                 list available experiments
//	spectrebench run <id> [...]      run one or more experiments
//	spectrebench run all             run everything
//	spectrebench -csv run <id>       CSV output instead of text tables
//	spectrebench -faults -seed 7 run all
//	                                  run under deterministic fault injection
//	spectrebench -jobs 8 run all     run on 8 workers (same bytes as -jobs 1)
//	spectrebench -store DIR run all  persist simulation cells across runs
//	spectrebench -store DIR serve    sweep-as-a-service HTTP daemon
//	spectrebench client run all      run a sweep against a daemon
//	spectrebench -cells 100000 gridbench
//	                                  sweep a synthetic boot-param config grid
//	spectrebench -require default optimize
//	                                  find the cheapest secure mitigation config per uarch
//
// Every experiment runs under a crash-safe supervisor: panics are
// caught, runaway experiments are stopped by a simulated-cycle
// watchdog, ambiguous probe readings are retried, and `run` keeps going
// past failures, printing a summary table and exiting nonzero at the
// end. Experiments decompose into simulation cells that are memoized
// and scheduled across a worker pool; output for a fixed seed is
// byte-identical across runs and across -jobs values.
//
// With -store, completed cells are additionally persisted to a
// crash-safe on-disk store and replayed on later runs (or by the serve
// daemon), without changing a single output byte: store bookkeeping
// prints to stderr only. `serve` exposes the same sweeps over HTTP with
// admission control, per-request deadlines and graceful drain on
// SIGTERM; `client` submits sweeps to a daemon with retry and
// exponential backoff, printing results byte-identical to a local run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/harness"
	"spectrebench/internal/server"
	"spectrebench/internal/store"
)

func main() {
	os.Exit(mainExitCode())
}

// mainExitCode is main with the exit code returned instead of called,
// so the profile-writing defers run before the process exits.
func mainExitCode() int {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	seed := flag.Uint64("seed", 1, "deterministic seed for fault injection")
	faults := flag.Bool("faults", false, "enable deterministic fault injection at the named fault points")
	cycleBudget := flag.Uint64("cycle-budget", harness.DefaultCycleBudget,
		"per-core watchdog budget in simulated cycles (0 disables)")
	retries := flag.Int("retries", harness.DefaultRetries,
		"max re-runs of an inconclusive or fault-injected failing experiment")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0),
		"worker pool size for experiments and simulation cells")
	cells := flag.Int("cells", 10000, "gridbench: number of synthetic grid cells to sweep")
	require := flag.String("require", "default",
		"optimize: attack set to block — comma-separated taxonomy IDs, \"default\" (default threat model) or \"all\"")
	workloads := flag.String("workloads", "",
		"optimize: comma-separated cost-objective workloads (empty = the grid default workload)")
	uarch := flag.String("uarch", "",
		"optimize: comma-separated uarch names to search (empty = all models)")
	combos := flag.Int("combos", 0,
		"optimize: restrict the lattice to the first N boot-param combos per uarch (0 = full lattice)")
	verbose := flag.Bool("v", false, "print the engine's cell-cache breakdown to stderr after run/gridbench")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	storeDir := flag.String("store", "",
		"persist simulation cells to this crash-safe on-disk store (run, serve)")
	addr := flag.String("addr", "127.0.0.1:8077", "listen address (serve) / daemon address (client)")
	maxInflight := flag.Int("max-inflight", 4,
		"serve: max concurrently admitted sweeps before refusing with 429")
	requestTimeout := flag.Duration("request-timeout", 5*time.Minute,
		"serve: wall-clock cap per sweep; client: requested sweep deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"serve: how long SIGTERM waits for in-flight sweeps before exiting")
	httpRetries := flag.Int("http-retries", 4,
		"client: max retries of a sweep after a transient error (connection refused, 429, 503)")
	flag.Usage = usage
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spectrebench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "spectrebench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spectrebench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "spectrebench: -memprofile: %v\n", err)
			}
		}()
	}

	cfg := harness.RunConfig{
		Seed:        *seed,
		Faults:      *faults,
		Retries:     *retries,
		CycleBudget: *cycleBudget,
	}
	if *cycleBudget == 0 {
		cfg.CycleBudget = harness.NoCycleBudget
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		return 2
	}
	// One engine for the whole process, handed to whichever subcommand
	// schedules cells. Workers start on first submission.
	eng := engine.New(*jobs)
	defer eng.Close()
	cfg.Engine = eng
	switch args[0] {
	case "list":
		list()
		return 0
	case "run":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "run: need at least one experiment id (or 'all')")
			return 2
		}
		return run(os.Stdout, args[1:], *csv, cfg, *storeDir, *verbose)
	case "gridbench":
		return gridbench(os.Stdout, gridOptions{
			cells:    *cells,
			cfg:      cfg,
			storeDir: *storeDir,
			verbose:  *verbose,
		})
	case "optimize":
		return optimizeCmd(os.Stdout, optimizeOptions{
			require:   *require,
			workloads: *workloads,
			uarchs:    *uarch,
			combos:    *combos,
			cfg:       cfg,
			storeDir:  *storeDir,
			verbose:   *verbose,
		})
	case "serve":
		return serve(eng, serveOptions{
			storeDir:       *storeDir,
			addr:           *addr,
			maxInflight:    *maxInflight,
			requestTimeout: *requestTimeout,
			drainTimeout:   *drainTimeout,
		})
	case "client":
		if len(args) < 3 || args[1] != "run" {
			fmt.Fprintln(os.Stderr, "client: usage: spectrebench [-addr HOST:PORT] client run <experiment-id>... | all")
			return 2
		}
		return clientRun(args[2:], *csv, cfg, *addr, *httpRetries, *requestTimeout)
	default:
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `spectrebench — reproduce "Performance Evolution of Mitigating Transient Execution Attacks"

usage:
  spectrebench list
  spectrebench [-csv] [-faults] [-seed N] [-cycle-budget N] [-retries N] [-jobs N]
               [-cpuprofile FILE] [-memprofile FILE] [-store DIR] [-v]
               run <experiment-id>... | all
  spectrebench [-cells N] [-faults] [-seed N] [-jobs N] [-store DIR] [-v] gridbench
  spectrebench [-require IDS] [-workloads W,...] [-uarch U,...] [-combos N]
               [-faults] [-seed N] [-jobs N] [-store DIR] [-v] optimize
  spectrebench [-store DIR] [-addr HOST:PORT] [-max-inflight N]
               [-request-timeout D] [-drain-timeout D] [-jobs N] serve
  spectrebench [-addr HOST:PORT] [-http-retries N] [-request-timeout D]
               [-csv] [-faults] [-seed N] [-cycle-budget N] [-retries N]
               client run <experiment-id>... | all

experiments:
`)
	for _, e := range harness.All() {
		fmt.Fprintf(os.Stderr, "  %-16s %-12s %s\n", e.ID, e.Paper, e.Title)
	}
}

func list() {
	for _, e := range harness.All() {
		fmt.Printf("%-16s %-12s %s\n", e.ID, e.Paper, e.Title)
	}
}

// run supervises the selected experiments on the worker pool, writes
// the rendered results to w, and returns the process exit code: 0 when
// every experiment completed ok, 1 otherwise (after all of them have
// run), 2 on a usage error. All statistics and bookkeeping — the cell
// cache note, store notes, -v breakdowns — go to stderr, so w carries
// exactly the result tables: pipe-clean, and byte-identical to a
// store-less run, an HTTP-fetched sweep, or any -jobs value.
func run(w io.Writer, ids []string, csv bool, cfg harness.RunConfig, storeDir string, verbose bool) int {
	var exps []harness.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		exps = harness.All()
	} else {
		for _, id := range ids {
			e, ok := harness.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "spectrebench: unknown experiment %q (try 'spectrebench list')\n", id)
				return 2
			}
			exps = append(exps, e)
		}
	}

	_, closeStore, ok := openStore(cfg.Engine, storeDir)
	if !ok {
		return 2
	}
	defer closeStore()

	results := harness.SuperviseEach(exps, cfg, nil)
	// Rendered with a nil engine — the same bytes the HTTP serving path
	// streams — and the cache note on stderr with the other stats.
	io.WriteString(w, harness.RenderResults(results, csv, nil))
	fmt.Fprintf(os.Stderr, "spectrebench: %s\n", harness.CacheNote(cfg.Engine))
	if verbose {
		fmt.Fprintf(os.Stderr, "spectrebench: engine: %s\n", cfg.Engine.StatsDetail())
	}
	if harness.Failed(results) > 0 {
		return 1
	}
	return 0
}

// serveOptions carries the serve subcommand's flags.
type serveOptions struct {
	storeDir       string
	addr           string
	maxInflight    int
	requestTimeout time.Duration
	drainTimeout   time.Duration
}

// serve runs the sweep-as-a-service daemon until SIGTERM/SIGINT, then
// drains: no new sweeps are admitted, in-flight sweeps get
// drain-timeout to finish, and the engine and store shut down cleanly
// so every committed cell is readable by the next daemon.
func serve(eng *engine.Engine, opts serveOptions) int {
	st, closeStore, ok := openStore(eng, opts.storeDir)
	if !ok {
		return 2
	}
	if st != nil {
		logf("%s", st.Note())
	}

	srv := server.New(server.Config{
		Engine:         eng,
		Store:          st,
		MaxInflight:    opts.maxInflight,
		RequestTimeout: opts.requestTimeout,
		Logf:           logf,
	})
	httpSrv := &http.Server{Addr: opts.addr, Handler: srv.Handler()}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spectrebench: serve: %v\n", err)
		return 2
	}
	logf("serving on http://%s (store: %s)", ln.Addr(), storeDesc(st))

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)

	select {
	case sig := <-sigCh:
		logf("received %v, draining (timeout %s)", sig, opts.drainTimeout)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "spectrebench: serve: %v\n", err)
		closeStore()
		return 1
	}

	// Drain: refuse new sweeps, let in-flight work finish, then shut
	// down the listener, the engine and the store — in that order, so a
	// sweep completing during the drain still commits its cells.
	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	if !srv.WaitIdle(drainCtx) {
		logf("drain timeout: abandoning in-flight work")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	httpSrv.Shutdown(shutCtx)
	eng.Close()
	closeStore()
	logf("shut down cleanly")
	return 0
}

func storeDesc(st *store.Store) string {
	if st == nil {
		return "none (memo cache only)"
	}
	return st.Dir()
}

// logf prints one "spectrebench: "-prefixed line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spectrebench: "+format+"\n", args...)
}

// openStore opens the -store directory dir as eng's second level. With
// no directory there is no store: st is nil and closeStore does
// nothing. On an open error it reports the error and returns ok false,
// and the caller exits 2. closeStore prints the store's note to stderr
// and closes it.
func openStore(eng *engine.Engine, dir string) (st *store.Store, closeStore func(), ok bool) {
	if dir == "" {
		return nil, func() {}, true
	}
	st, err := store.Open(dir, store.Options{Logf: logf})
	if err != nil {
		logf("-store: %v", err)
		return nil, nil, false
	}
	eng.SetSecondLevel(st)
	return st, func() {
		logf("%s", st.Note())
		if err := st.Close(); err != nil {
			logf("store close: %v", err)
		}
	}, true
}

// clientRun submits one sweep to a daemon and prints the results
// byte-identically to a local run: per-experiment blocks in request
// order on stdout, the server-rendered summary after them, transport
// chatter on stderr. Transient failures (daemon restarting, admission
// control) are retried with exponential backoff.
func clientRun(ids []string, csv bool, cfg harness.RunConfig, addr string, retries int, timeout time.Duration) int {
	req := server.SweepRequest{
		Experiments: ids,
		Seed:        cfg.Seed,
		Faults:      cfg.Faults,
		CSV:         csv,
		TimeoutMs:   timeout.Milliseconds(),
	}
	budget := cfg.CycleBudget
	req.CycleBudget = &budget
	retriesVal := cfg.Retries
	req.Retries = &retriesVal

	cl := &server.Client{
		BaseURL:    "http://" + addr,
		MaxRetries: retries,
		Gzip:       true, // transport only: the records are byte-identical either way
		Logf:       logf,
	}
	resp, err := cl.Sweep(context.Background(), req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spectrebench: client: %v\n", err)
		return 1
	}
	for _, rec := range resp.Results {
		if rec != nil {
			fmt.Print(rec.Rendered)
		}
	}
	fmt.Print(resp.Summary.Rendered)
	if resp.Summary.Failed > 0 || resp.Summary.TimedOut {
		return 1
	}
	return 0
}
