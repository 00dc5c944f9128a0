package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/store"
)

// TestMain lets the smoke runs start the reference loop in a process of
// its own, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(refEnv) != "" {
		fmt.Println(refLoopWarm())
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The store decorator must implement the engine's optional store
// interfaces, or the engine would take a different path when traced.
var (
	_ engine.BatchSecondLevel  = (*timedStore)(nil)
	_ engine.BatchLinkRecorder = (*timedStore)(nil)
)

func TestDecoratorImplementsExactlyWhatStoreDoes(t *testing.T) {
	ifaces := []reflect.Type{
		reflect.TypeOf((*engine.SecondLevel)(nil)).Elem(),
		reflect.TypeOf((*engine.BatchSecondLevel)(nil)).Elem(),
		reflect.TypeOf((*engine.LinkRecorder)(nil)).Elem(),
		reflect.TypeOf((*engine.BatchLinkRecorder)(nil)).Elem(),
	}
	st, dec := reflect.TypeOf((*store.Store)(nil)), reflect.TypeOf((*timedStore)(nil))
	for _, it := range ifaces {
		if st.Implements(it) != dec.Implements(it) {
			t.Errorf("%v: *store.Store implements it %v, timedStore %v", it, st.Implements(it), dec.Implements(it))
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// Expected quartiles are Python's statistics.quantiles(xs, n=4).
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{3, 1}, 2, 0.5, 3.5},
		{[]float64{7, 1, 5}, 5, 1, 7},
		{[]float64{2}, 2, 2, 2},
		{nil, 0, 0, 0},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestTailHasTenSamplesBeyondIt(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{19, 0, 0, false},
		{20, 50, 10, true},
		{99, 50, 50, true},
		{100, 90, 90, true},
		{999, 90, 900, true},
		{1000, 99, 990, true},
	} {
		pct, val, ok := tail(seq(tc.n))
		if pct != tc.pct || val != tc.val || ok != tc.ok {
			t.Errorf("tail(%d samples) = %v, %v, %v, want %v, %v, %v", tc.n, pct, val, ok, tc.pct, tc.val, tc.ok)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},  // overlaps a
		{name: "c", parent: 1, start: 15, end: 20},  // a's child
		{name: "d", parent: 0, start: 90, end: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 25, "b": 30, "c": 5, "d": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsSpansOnOneGoroutine(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", -1, 0)
	inner := tr.begin("inner", -1, 0) // names no parent, but runs inside outer
	tr.end(inner)
	tr.end(outer)
	after := tr.begin("after", -1, 0)
	tr.end(after)
	sp := tr.snapshot()
	if sp[inner].parent != outer || sp[after].parent != -1 {
		t.Errorf("parents: inner %d (want %d), after %d (want -1)", sp[inner].parent, outer, sp[after].parent)
	}
}

func TestFlatSharesByPackage(t *testing.T) {
	top := []byte(`File: spectrebench-bench
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      0.90s 45.00%  spectrebench/internal/cpu.(*Core).StepBlock
     0.50s 25.00% 65.00%      0.50s 25.00%  runtime.mallocgc
     0.30s 15.00% 80.00%      0.30s 15.00%  spectrebench/internal/workloads/lebench.Run
     0.20s 10.00% 90.00%      0.20s 10.00%  internal/runtime/maps.(*Map).getWithKey
     0.20s 10.00%   100%      0.20s 10.00%  sort.Slice
`)
	want := map[string]float64{"cpu": 40, "runtime": 35, "workloads": 15, "other": 10}
	if got := flatShares(top); !reflect.DeepEqual(got, want) {
		t.Errorf("flatShares = %v, want %v", got, want)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "paper", "--seed", "1", "--trace", "0"})
	want := []string{"--workload", "paper", "--seed", "1", "--trace=0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	if got := normalizeArgs([]string{"-trace", "-seed", "2"}); !reflect.DeepEqual(got, []string{"-trace", "-seed", "2"}) {
		t.Errorf("bare -trace rewritten: %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := rule{lower: true, bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		a, b    []float64
		r       rule
		verdict string
	}{
		{steady, []float64{105, 104, 106, 105, 105}, lower, "ok"},
		{steady, []float64{120, 121, 119, 120, 120}, lower, "REGRESSED"},
		{[]float64{50, 100, 150, 100, 60}, []float64{100, 100}, lower, "unresolved"},
		{[]float64{50, 100, 150, 100, 60}, []float64{10, 11}, lower, "better (every run)"},
		{steady, []float64{80, 80}, rule{lower: false, bound: 0.1}, "REGRESSED"},
		{steady, []float64{500}, rule{lower: true}, "-"},
	} {
		if got := judge(tc.a, tc.b, tc.r).verdict; got != tc.verdict {
			t.Errorf("judge(%v, %v) = %q, want %q", tc.a, tc.b, got, tc.verdict)
		}
	}
}

// TestSpecMatchesCode checks that BENCHMARK.json names the workloads and
// metrics the code reports, with the same units.
func TestSpecMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	for _, c := range []struct {
		what string
		spec []metric
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", c.what, len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", c.what, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// toySize keeps the smoke run of every workload to a few seconds.
var toySize = size{cells: 2000, exps: []string{"table1", "table3", "table8"}, minIters: 4, reqsA: 8, reqsB: 2}

// TestSmoke runs every workload untraced and traced at toy size and
// checks that every output check passed and the metrics were reported.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, mode := range []string{modeRun, modeTrace} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				rep := runChild(childOptions{
					workload: name, mode: mode, seed: 1, seconds: 2, size: toySize,
					started: time.Now(), work: filepath.Join(dir, "work"), outDir: dir,
				})
				if rep.Attempted == 0 || rep.Failed != 0 {
					t.Fatalf("%d attempted, %d failed: %v", rep.Attempted, rep.Failed, rep.Problems)
				}
				if rep.SetupS <= 0 || rep.Metrics["op_ms"] <= 0 || rep.Metrics["op2_ms"] <= 0 {
					t.Errorf("setup_s %v, op_ms %v, op2_ms %v: want all positive",
						rep.SetupS, rep.Metrics["op_ms"], rep.Metrics["op2_ms"])
				}
				if mode != modeTrace {
					return
				}
				data, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var tf struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) == 0 {
					t.Errorf("trace file: %d events, err %v", len(tf.TraceEvents), err)
				}
			})
		}
	}
}
