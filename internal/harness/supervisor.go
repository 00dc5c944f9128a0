package harness

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"spectrebench/internal/attacks"
	"spectrebench/internal/cpu"
	"spectrebench/internal/engine"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/simscope"
)

// ErrInconclusive aliases the probe layer's sentinel so harness callers
// (and synthetic test experiments) classify inconclusive outcomes
// without importing internal/attacks.
var ErrInconclusive = attacks.ErrInconclusive

// Status classifies a supervised experiment outcome.
type Status string

// Experiment statuses.
const (
	StatusOK           Status = "ok"
	StatusFailed       Status = "failed"
	StatusInconclusive Status = "inconclusive"
	StatusTimeout      Status = "timeout"
)

// Supervisor defaults.
const (
	// DefaultCycleBudget is the per-core simulated-cycle watchdog limit
	// applied to every core an experiment constructs: generous next to
	// the ~10M-cycle microbenchmarks, small enough to abort a runaway
	// experiment instead of hanging CI.
	DefaultCycleBudget = 500_000_000
	// DefaultRetries bounds re-runs of inconclusive or fault-injected
	// failures before the result is reported as-is.
	DefaultRetries = 2
)

// ExperimentError is the structured form a simulator panic (or wrapped
// run failure) takes once the supervisor catches it: the experiment ID,
// the attempt, the active fault point (when fault injection was on) and
// the recovered value with its stack.
type ExperimentError struct {
	// ID is the experiment that failed.
	ID string
	// Attempt is the zero-based attempt that produced the error.
	Attempt int
	// FaultPoint names the most recently fired fault-injection point
	// ("" when fault injection was inactive or nothing had fired) —
	// the weather that likely provoked the failure.
	FaultPoint string
	// PanicValue is the recovered panic value, nil for wrapped errors.
	PanicValue any
	// Stack is the goroutine stack at recovery time (panics only).
	Stack string
	// Err is the underlying error.
	Err error
}

func (e *ExperimentError) Error() string {
	msg := fmt.Sprintf("experiment %s (attempt %d)", e.ID, e.Attempt)
	if e.PanicValue != nil {
		msg += fmt.Sprintf(": panic: %v", e.PanicValue)
	} else if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	if e.FaultPoint != "" {
		msg += " [fault-point " + e.FaultPoint + "]"
	}
	return msg
}

func (e *ExperimentError) Unwrap() error { return e.Err }

// RunConfig configures supervised execution.
type RunConfig struct {
	// Seed roots the deterministic fault injector. Ignored unless
	// Faults is set.
	Seed uint64
	// Faults enables deterministic fault injection for each attempt.
	Faults bool
	// Retries is the maximum number of re-runs after an inconclusive
	// reading (always retried, with a reseeded injector) or a
	// fault-injected failure. Negative means DefaultRetries.
	Retries int
	// CycleBudget is the per-core watchdog in simulated cycles; 0 means
	// DefaultCycleBudget, NoCycleBudget disables the watchdog.
	CycleBudget uint64
	// Engine schedules the run's simulation cells and experiment tasks.
	// Required.
	Engine *engine.Engine
}

// NoCycleBudget disables the watchdog when placed in
// RunConfig.CycleBudget.
const NoCycleBudget = ^uint64(0)

func (cfg RunConfig) withDefaults() RunConfig {
	if cfg.Retries < 0 {
		cfg.Retries = DefaultRetries
	}
	switch cfg.CycleBudget {
	case 0:
		cfg.CycleBudget = DefaultCycleBudget
	case NoCycleBudget:
		cfg.CycleBudget = 0
	}
	return cfg
}

// Result is the supervised outcome of one experiment.
type Result struct {
	ID    string
	Paper string
	Title string
	// Status classifies the final attempt.
	Status Status
	// Table holds the rendered result when Status == StatusOK.
	Table *Table
	// Err is the final attempt's error for non-OK statuses.
	Err error
	// Retries is how many re-runs were consumed (0 = first attempt
	// decided).
	Retries int
	// Cycles is the simulated-cycle cost across all attempts (telemetry
	// is flushed periodically, so small experiments may under-report).
	Cycles uint64
}

// supervise runs one experiment crash-safely: panics become typed
// *ExperimentError values, every core the experiment constructs is
// bounded by the watchdog cycle budget, and inconclusive probe readings
// are retried with a reseeded fault injector before being reported. The
// process never dies on a failing experiment — that is the contract that
// lets `run all` degrade gracefully.
// act is the batch's fault-injection activation (nil when faults are
// off); each attempt gets its own simulation scope carrying the
// attempt's fault seed, the activation, the budget and the engine —
// everything experiment code and the cells it declares need. first is
// the first attempt's scope, which the caller has already entered.
func supervise(e Experiment, cfg RunConfig, act any, first *simscope.Scope) Result {
	res := Result{ID: e.ID, Paper: e.Paper, Title: e.Title}

	for attempt := 0; ; attempt++ {
		sc, restore := first, func() {}
		if attempt > 0 {
			sc = attemptScope(e, cfg, act, attempt)
			restore = simscope.Enter(sc)
		}
		tbl, err := runProtected(e, attempt, sc)
		restore()
		res.Cycles += sc.Cycles()
		// The attempt is over: recycle any cores constructed directly
		// under the attempt scope (cells own separate scopes released by
		// the engine).
		sc.Release()
		res.Retries = attempt

		if err == nil {
			res.Status, res.Table, res.Err = StatusOK, tbl, nil
			return res
		}
		res.Err = err
		switch {
		case errors.Is(err, cpu.ErrCycleBudget):
			res.Status = StatusTimeout
		case errors.Is(err, ErrInconclusive):
			res.Status = StatusInconclusive
		default:
			res.Status = StatusFailed
		}
		if attempt >= cfg.Retries {
			return res
		}
		// Inconclusive readings are always worth a retry. Failures and
		// timeouts are retried only under fault injection, where the
		// reseeded injector gives the next attempt a real chance; a
		// deterministic failure would just repeat.
		if !cfg.Faults && res.Status != StatusInconclusive {
			return res
		}
	}
}

// attemptScope returns the simulation scope of one attempt. Its seed
// derives from (seed, experiment, attempt), so a retry sees different —
// but still reproducible — weather, and a single experiment re-run in
// isolation reproduces its `run all` behaviour.
func attemptScope(e Experiment, cfg RunConfig, act any, attempt int) *simscope.Scope {
	return &simscope.Scope{
		FaultSeed: attemptSeed(cfg.Seed, e.ID, attempt),
		Fault:     act,
		Budget:    cfg.CycleBudget,
		Tag:       cfg.Engine,
	}
}

// attemptSeed derives the per-attempt injector seed. The experiment ID
// is folded in so seeds do not depend on execution order, and the
// attempt index reseeds retries.
func attemptSeed(seed uint64, id string, attempt int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return seed ^ h ^ (uint64(attempt+1) * 0x9e3779b97f4a7c15)
}

// runProtected invokes e.Run with panic isolation. A panic's FaultPoint
// comes from the attempt scope's last-fired register (cells carry their
// own scopes, so a fault inside a cell surfaces through the cell's
// PanicError instead).
func runProtected(e Experiment, attempt int, sc *simscope.Scope) (tbl *Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			ee := &ExperimentError{
				ID:         e.ID,
				Attempt:    attempt,
				PanicValue: r,
				Stack:      string(debug.Stack()),
				Err:        fmt.Errorf("panic: %v", r),
			}
			if p, ok := sc.LastFired(); ok {
				ee.FaultPoint = faultinject.Point(p).String()
			}
			err = ee
		}
	}()
	return e.Run()
}

// SuperviseEach supervises every experiment concurrently on
// cfg.Engine's worker pool, never stopping at a failure, and returns the
// results in input order. Each experiment is an unkeyed engine task;
// the cells it declares fan out further across the same pool. Every
// determinism parameter — fault activation, seed, budget, engine —
// travels in the attempt scopes, so concurrent batches with different
// configs cannot interfere, and gathering in input order (not
// completion order) keeps rendered output byte-identical for any
// worker count.
//
// done, when non-nil, is invoked as each experiment completes — in
// completion order, from worker goroutines — which is what lets a
// server stream results while the batch is still running.
func SuperviseEach(exps []Experiment, cfg RunConfig, done func(int, Result)) []Result {
	cfg = cfg.withDefaults()
	var act any
	if cfg.Faults {
		act = faultinject.NewActivation(faultinject.Config{})
	}
	items := make([]engine.BatchGo, len(exps))
	for i, e := range exps {
		i, e := i, e
		// The engine enters the first attempt's scope for the task.
		first := attemptScope(e, cfg, act, 0)
		items[i] = engine.BatchGo{Label: "experiment/" + e.ID, Scope: first, Fn: func() (any, error) {
			r := supervise(e, cfg, act, first)
			if done != nil {
				done(i, r)
			}
			return r, nil
		}}
	}
	tasks := cfg.Engine.GoBatch(items)
	out := make([]Result, len(exps))
	for i, t := range tasks {
		v, err := t.Wait(nil) // unkeyed: charges no scope
		if err != nil {
			// A scheduler-level failure (a panic escaping supervise, or
			// ErrClosed from an engine shut down mid-batch). Degrade
			// gracefully all the same.
			out[i] = Result{ID: exps[i].ID, Paper: exps[i].Paper, Title: exps[i].Title,
				Status: StatusFailed, Err: err}
			if done != nil {
				done(i, out[i])
			}
			continue
		}
		out[i] = v.(Result)
	}
	return out
}

// Failed reports how many results are not StatusOK.
func Failed(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Status != StatusOK {
			n++
		}
	}
	return n
}

// SummaryTable renders the per-experiment outcome table printed at the
// end of a supervised batch. Its contents are deterministic for a fixed
// seed (no wall-clock values), so two identical runs render identically.
func SummaryTable(results []Result) *Table {
	t := &Table{
		ID:      "summary",
		Title:   "supervised experiment outcomes",
		Columns: []string{"experiment", "status", "retries", "Mcycles", "error"},
	}
	for _, r := range results {
		errText := ""
		if r.Err != nil {
			errText = summarizeError(r.Err)
		}
		t.Rows = append(t.Rows, []string{
			r.ID, string(r.Status), fmt.Sprint(r.Retries),
			fmt.Sprintf("%.1f", float64(r.Cycles)/1e6), errText,
		})
	}
	if n := Failed(results); n > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("%d of %d experiments did not complete ok", n, len(results)))
	}
	return t
}

// summarizeError flattens an error to one table-cell-safe line.
func summarizeError(err error) string {
	s := strings.ReplaceAll(err.Error(), "\n", " ")
	s = strings.ReplaceAll(s, ",", ";") // keep the CSV rendering parseable
	const max = 80
	if len(s) > max {
		s = s[:max-1] + "…"
	}
	return s
}
