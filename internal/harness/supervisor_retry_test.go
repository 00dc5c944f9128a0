package harness

import (
	"errors"
	"testing"

	"spectrebench/internal/engine"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/simscope"
)

// TestFaultedFailureRetriesWithDistinctInjectorStreams pins the retry
// contract under -faults end to end: a fault-provoked crash is re-run
// at most DefaultRetries times, every attempt sees a distinct,
// attempt-derived fault seed (reproducible weather, different each
// try), and the final error carries the attempt index and the fired
// fault point.
func TestFaultedFailureRetriesWithDistinctInjectorStreams(t *testing.T) {
	eng := engine.New(1)
	defer eng.Close()

	var seeds []uint64
	e := Experiment{ID: "retry-synthetic", Paper: "test", Title: "always crashes", Run: func() (*Table, error) {
		sc := simscope.Current()
		if sc == nil {
			t.Error("no scope installed for attempt")
			return nil, errors.New("no scope")
		}
		seeds = append(seeds, sc.FaultSeed)
		// Simulate a fault-provoked crash: attribute a fired point to the
		// attempt scope, then die the way a corrupted simulation would.
		sc.NoteFired(uint8(faultinject.TLBGlitch))
		panic("synthetic fault-induced crash")
	}}

	cfg := RunConfig{Seed: 7, Faults: true, Retries: DefaultRetries, Engine: eng}
	res := SuperviseEach([]Experiment{e}, cfg, nil)[0]

	if res.Status != StatusFailed {
		t.Fatalf("status=%s, want failed", res.Status)
	}
	if len(seeds) != DefaultRetries+1 {
		t.Fatalf("ran %d attempts, want %d (initial + DefaultRetries)", len(seeds), DefaultRetries+1)
	}
	if res.Retries != DefaultRetries {
		t.Errorf("res.Retries=%d, want %d", res.Retries, DefaultRetries)
	}

	// Every attempt's stream is derived from (seed, id, attempt) — check
	// both the exact derivation and pairwise distinctness.
	seen := map[uint64]bool{}
	for attempt, got := range seeds {
		if want := attemptSeed(cfg.Seed, e.ID, attempt); got != want {
			t.Errorf("attempt %d: fault seed %#x, want %#x", attempt, got, want)
		}
		if seen[got] {
			t.Errorf("attempt %d: fault seed %#x repeats an earlier attempt", attempt, got)
		}
		seen[got] = true
	}

	var ee *ExperimentError
	if !errors.As(res.Err, &ee) {
		t.Fatalf("final error %T, want *ExperimentError", res.Err)
	}
	if ee.Attempt != DefaultRetries {
		t.Errorf("final ExperimentError.Attempt=%d, want %d", ee.Attempt, DefaultRetries)
	}
	if want := faultinject.TLBGlitch.String(); ee.FaultPoint != want {
		t.Errorf("final ExperimentError.FaultPoint=%q, want %q", ee.FaultPoint, want)
	}
}

// TestSuperviseEachStreamsCompletionsAndKeepsInputOrder pins the
// server-facing contract: done fires once per experiment with its
// final result, and the returned slice is in input order regardless of
// completion order.
func TestSuperviseEachStreamsCompletionsAndKeepsInputOrder(t *testing.T) {
	eng := engine.New(4)
	defer eng.Close()

	mk := func(id string) Experiment {
		return Experiment{ID: id, Paper: "test", Title: "synthetic " + id, Run: func() (*Table, error) {
			return &Table{ID: id, Columns: []string{"v"}, Rows: [][]string{{id}}}, nil
		}}
	}
	exps := []Experiment{mk("a"), mk("b"), mk("c"), mk("d")}

	type evt struct {
		i  int
		id string
	}
	ch := make(chan evt, len(exps))
	results := SuperviseEach(exps, RunConfig{Retries: DefaultRetries, Engine: eng}, func(i int, r Result) {
		ch <- evt{i, r.ID}
	})
	close(ch)

	got := map[int]string{}
	for e := range ch {
		got[e.i] = e.id
	}
	if len(got) != len(exps) {
		t.Fatalf("done fired %d times, want %d", len(got), len(exps))
	}
	for i, e := range exps {
		if got[i] != e.ID {
			t.Errorf("done index %d reported %q, want %q", i, got[i], e.ID)
		}
		if results[i].ID != e.ID || results[i].Status != StatusOK {
			t.Errorf("results[%d] = {%s %s}, want {%s ok}", i, results[i].ID, results[i].Status, e.ID)
		}
	}
}
