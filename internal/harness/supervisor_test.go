package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"spectrebench/internal/cpu"
	"spectrebench/internal/engine"
	"spectrebench/internal/isa"
	"spectrebench/internal/model"
	"spectrebench/internal/simscope"
)

func exp(id string, run func() (*Table, error)) Experiment {
	return Experiment{ID: id, Paper: "test", Title: "synthetic " + id, Run: run}
}

// superviseOne supervises e alone on a throwaway engine.
func superviseOne(t *testing.T, e Experiment, cfg RunConfig) Result {
	t.Helper()
	cfg.Engine = engine.New(1)
	defer cfg.Engine.Close()
	return SuperviseEach([]Experiment{e}, cfg, nil)[0]
}

// runScoped runs fn the way a supervised attempt runs an experiment:
// under a scope carrying a throwaway engine for the cells it declares.
func runScoped(fn func() (*Table, error)) (*Table, error) {
	eng := engine.New(0)
	defer eng.Close()
	restore := simscope.Enter(&simscope.Scope{Tag: eng})
	defer restore()
	return fn()
}

func TestSupervisePanicBecomesExperimentError(t *testing.T) {
	e := exp("panicky", func() (*Table, error) {
		panic("deliberate out-of-bounds in simulator")
	})
	res := superviseOne(t, e, RunConfig{Retries: 0})
	if res.Status != StatusFailed {
		t.Fatalf("status = %q, want %q", res.Status, StatusFailed)
	}
	var ee *ExperimentError
	if !errors.As(res.Err, &ee) {
		t.Fatalf("error %v (%T) is not *ExperimentError", res.Err, res.Err)
	}
	if ee.ID != "panicky" || ee.PanicValue == nil {
		t.Fatalf("bad ExperimentError: %+v", ee)
	}
	if !strings.Contains(ee.Stack, "supervisor_test.go") {
		t.Errorf("stack trace missing test frame:\n%s", ee.Stack)
	}
	if !strings.Contains(ee.Error(), "deliberate out-of-bounds") {
		t.Errorf("Error() = %q, want panic message included", ee.Error())
	}
}

func TestSuperviseCycleBudgetTimeout(t *testing.T) {
	// A core spinning in an infinite loop must be stopped by the
	// watchdog budget the supervisor installs, not hang the test.
	e := exp("runaway", func() (*Table, error) {
		c := microCore(model.SkylakeClient())
		a := isa.NewAsm()
		a.Label("spin")
		a.Jmp("spin")
		p := a.MustAssemble(microCode)
		c.LoadProgram(p)
		c.PC = p.Base
		for {
			if err := c.Step(); err != nil {
				return nil, fmt.Errorf("runaway stopped: %w", err)
			}
		}
	})
	res := superviseOne(t, e, RunConfig{CycleBudget: 100_000, Retries: 0})
	if res.Status != StatusTimeout {
		t.Fatalf("status = %q (err %v), want %q", res.Status, res.Err, StatusTimeout)
	}
	if !errors.Is(res.Err, cpu.ErrCycleBudget) {
		t.Fatalf("error %v does not wrap cpu.ErrCycleBudget", res.Err)
	}
	if res.Cycles == 0 {
		t.Error("watchdog expiry should have flushed cycle telemetry")
	}
}

func TestSuperviseRetriesInconclusive(t *testing.T) {
	// Bimodally flaky experiment: the first probe reading lands in the
	// ambiguous band, the retry succeeds.
	calls := 0
	e := exp("flaky", func() (*Table, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("scenario spectre-v1: %w", ErrInconclusive)
		}
		return &Table{ID: "flaky", Title: "ok now"}, nil
	})
	res := superviseOne(t, e, RunConfig{Retries: 2})
	if res.Status != StatusOK {
		t.Fatalf("status = %q (err %v), want ok", res.Status, res.Err)
	}
	if res.Retries != 1 || calls != 2 {
		t.Fatalf("retries = %d, calls = %d, want 1 retry / 2 calls", res.Retries, calls)
	}
	if res.Table == nil || res.Table.Title != "ok now" {
		t.Fatalf("table from successful retry not returned: %+v", res.Table)
	}
}

func TestSuperviseAlwaysInconclusive(t *testing.T) {
	calls := 0
	e := exp("murky", func() (*Table, error) {
		calls++
		return nil, fmt.Errorf("reading: %w", ErrInconclusive)
	})
	res := superviseOne(t, e, RunConfig{Retries: 2})
	if res.Status != StatusInconclusive {
		t.Fatalf("status = %q, want inconclusive", res.Status)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (initial + 2 retries)", calls)
	}
	if !errors.Is(res.Err, ErrInconclusive) {
		t.Fatalf("error %v does not wrap ErrInconclusive", res.Err)
	}
}

func TestSuperviseDeterministicFailureNotRetriedWithoutFaults(t *testing.T) {
	calls := 0
	e := exp("broken", func() (*Table, error) {
		calls++
		return nil, errors.New("deterministic failure")
	})
	res := superviseOne(t, e, RunConfig{Retries: 2})
	if res.Status != StatusFailed {
		t.Fatalf("status = %q, want failed", res.Status)
	}
	if calls != 1 {
		t.Fatalf("calls = %d; plain failures without fault injection must not be retried", calls)
	}
}

func TestSuperviseAllGracefulDegradation(t *testing.T) {
	exps := []Experiment{
		exp("a-panics", func() (*Table, error) { panic("boom") }),
		exp("b-ok", func() (*Table, error) { return &Table{ID: "b-ok"}, nil }),
		exp("c-fails", func() (*Table, error) { return nil, errors.New("nope") }),
	}
	eng := engine.New(2)
	defer eng.Close()
	results := SuperviseEach(exps, RunConfig{Retries: 0, Engine: eng}, nil)
	if len(results) != 3 {
		t.Fatalf("got %d results, want one per experiment", len(results))
	}
	want := []Status{StatusFailed, StatusOK, StatusFailed}
	for i, r := range results {
		if r.Status != want[i] {
			t.Errorf("results[%d] (%s) status = %q, want %q", i, r.ID, r.Status, want[i])
		}
	}
	if Failed(results) != 2 {
		t.Errorf("Failed = %d, want 2", Failed(results))
	}
	sum := SummaryTable(results).Render()
	for _, id := range []string{"a-panics", "b-ok", "c-fails"} {
		if !strings.Contains(sum, id) {
			t.Errorf("summary table missing row for %s:\n%s", id, sum)
		}
	}
}

// TestSuperviseSeedStability is the regression fence for deterministic
// fault injection: the same experiment run twice at the same seed must
// render byte-identical tables even though faults fire throughout.
func TestSuperviseSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment twice")
	}
	e, ok := Lookup("table3")
	if !ok {
		t.Fatal("table3 experiment not registered")
	}
	cfg := RunConfig{Seed: 1, Faults: true}
	first := superviseOne(t, e, cfg)
	second := superviseOne(t, e, cfg)
	if first.Status != second.Status {
		t.Fatalf("statuses differ across identical runs: %q vs %q", first.Status, second.Status)
	}
	if first.Status != StatusOK {
		t.Fatalf("table3 under seed-1 fault injection: %v", first.Err)
	}
	a, b := first.Table.Render(), second.Table.Render()
	if a != b {
		t.Errorf("same-seed runs rendered differently:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if first.Retries != second.Retries {
		t.Errorf("retry counts differ: %d vs %d", first.Retries, second.Retries)
	}
}
