package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json -compare needs: each metric's
// direction and, for end-to-end metrics, its regression bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// rule is how one metric is judged.
type rule struct {
	lower bool    // lower is better
	bound float64 // 0 for per-layer metrics: reported, never judged
}

func loadRules(root string) (map[string]rule, []string, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range sp.EndToEnd {
		rules[m.Name] = rule{lower: m.Better == "lower", bound: m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range sp.PerLayer {
		rules[m.Name] = rule{lower: m.Better == "lower"}
		order = append(order, m.Name)
	}
	return rules, order, nil
}

func readRunFile(path string) (runFile, error) {
	var rf runFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// comparison is the verdict on one (workload, metric) pair.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	worse          float64 // how much worse B's median is, as a share of A's
	verdict        string
}

// judge compares the runs of a parent (a) and a change (b) on one
// metric. With a bound, the change regresses when its median is worse
// than the parent's by more than the bound; when the parent's own
// spread (quartile distance over median) is wider than the bound the
// pair is unresolved, unless every run of b beats every run of a.
func judge(a, b []float64, r rule) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	if c.medA != 0 {
		c.worse = (c.medB - c.medA) / c.medA
		if !r.lower {
			c.worse = -c.worse
		}
	}
	switch {
	case r.bound == 0:
		c.verdict = "-"
	case c.medA != 0 && (c.q3A-c.q1A)/c.medA > r.bound:
		c.verdict = "unresolved"
		if allBetter(a, b, r.lower) {
			c.verdict = "better (every run)"
		}
	case c.worse > r.bound:
		c.verdict = "REGRESSED"
	default:
		c.verdict = "ok"
	}
	return c
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, lower bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if lower {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// compareFiles prints, for each workload and metric present in both
// files, each side's median and quartiles and the change against the
// metric's bound. It returns 1 when an end-to-end metric regressed.
func compareFiles(w io.Writer, root, pathA, pathB string) int {
	rules, order, err := loadRules(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readRunFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRunFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	va, vb := collect(a), collect(b)
	var workloads []string
	for wl := range va {
		if _, ok := vb[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "A: %s (%d runs, nproc %d)\nB: %s (%d runs, nproc %d)\n",
		pathA, len(a.Runs), a.Host.Nproc, pathB, len(b.Runs), b.Host.Nproc)
	fmt.Fprintf(w, "%-11s %-28s %11s %23s %11s %23s %8s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "worse", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, name := range order {
			xa, xb := va[wl][name], vb[wl][name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			r := rules[name]
			c := judge(xa, xb, r)
			if c.verdict == "REGRESSED" {
				code = 1
			}
			bound := "-"
			if r.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", r.bound*100)
			}
			fmt.Fprintf(w, "%-11s %-28s %11.4g [%10.4g, %10.4g] %11.4g [%10.4g, %10.4g] %7.1f%% %6s  %s\n",
				wl, name, c.medA, c.q1A, c.q3A, c.medB, c.q1B, c.q3B, c.worse*100, bound, c.verdict)
		}
	}
	return code
}

// collect groups a file's metric values by workload and metric name.
func collect(rf runFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rf.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}
