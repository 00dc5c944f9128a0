package core

import (
	"errors"
	"testing"

	"spectrebench/internal/engine"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/stats"
	"spectrebench/internal/workloads/lebench"
)

// lebenchGeo is the Figure 2 workload: LEBench geometric mean.
func lebenchGeo(m *model.CPU, mit kernel.Mitigations) (float64, error) {
	res, err := lebench.Run(m, mit)
	if err != nil {
		return 0, err
	}
	vals := make([]float64, len(res))
	for i, r := range res {
		vals[i] = r.Cycles
	}
	return stats.GeoMean(vals), nil
}

func TestBoot(t *testing.T) {
	mach := BootDefault(model.Broadwell())
	if mach.CPU == nil || mach.Kernel == nil {
		t.Fatal("boot returned incomplete machine")
	}
	if !mach.Kernel.Mit.PTI {
		t.Error("Broadwell default boot must enable PTI")
	}
}

func TestAttributeBroadwell(t *testing.T) {
	cfg := Config{MinRuns: 2, MaxRuns: 3, RelCI: 0.05}
	attr, err := Attribute(model.Broadwell(), lebenchGeo, OSLadder(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Total < 0.10 {
		t.Errorf("Broadwell total overhead = %.1f%%, want >10%%", attr.Total*100)
	}
	// The paper: PTI and MDS dominate on Broadwell.
	byName := map[string]float64{}
	for _, p := range attr.Parts {
		byName[p.Name] = p.Overhead
	}
	if byName["MDS (verw)"] <= 0 {
		t.Errorf("MDS share = %v, want positive", byName["MDS (verw)"])
	}
	if byName["Meltdown (PTI)"] <= 0 {
		t.Errorf("PTI share = %v, want positive", byName["Meltdown (PTI)"])
	}
	small := byName["Spectre V1 (lfence/masking)"] + byName["other"]
	big := byName["MDS (verw)"] + byName["Meltdown (PTI)"]
	if small >= big {
		t.Errorf("V1+other (%.3f) should be far below MDS+PTI (%.3f)", small, big)
	}
	// Parts must sum to the total (telescoping differences).
	var sum float64
	for _, p := range attr.Parts {
		sum += p.Overhead
	}
	if diff := sum - attr.Total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("parts sum %.6f != total %.6f", sum, attr.Total)
	}
}

func TestAttributeIceLakeNearZero(t *testing.T) {
	cfg := Config{MinRuns: 2, MaxRuns: 3, RelCI: 0.05}
	attr, err := Attribute(model.IceLakeServer(), lebenchGeo, OSLadder(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Total > 0.08 {
		t.Errorf("Ice Lake Server total = %.1f%%, want small (paper ~3%%)", attr.Total*100)
	}
	// No PTI or MDS share on a fixed part.
	for _, p := range attr.Parts {
		if (p.Name == "MDS (verw)" || p.Name == "Meltdown (PTI)") && p.Overhead > 0.01 {
			t.Errorf("%s share = %.3f on a hardware-fixed part", p.Name, p.Overhead)
		}
	}
}

// TestAttributeWithNoiseConverges: a workload with ±2% run-to-run
// noise is sampled until each rung's CI is met or its run budget is
// spent.
func TestAttributeWithNoiseConverges(t *testing.T) {
	noise := stats.NewNoise(1, 0.02)
	noisy := func(m *model.CPU, mit kernel.Mitigations) (float64, error) {
		v, err := lebenchGeo(m, mit)
		return noise.Perturb(v), err
	}
	cfg := Config{MinRuns: 3, MaxRuns: 60, RelCI: 0.01}
	attr, err := Attribute(model.Zen2(), noisy, OSLadder(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range attr.Parts {
		if p.Sample.N() < 3 {
			t.Errorf("%s: only %d runs", p.Name, p.Sample.N())
		}
		if p.Sample.RelCI95() > 0.011 && p.Sample.N() < 60 {
			t.Errorf("%s: CI not met and budget not exhausted", p.Name)
		}
	}
}

func TestAttributeErrorPropagates(t *testing.T) {
	bad := func(*model.CPU, kernel.Mitigations) (float64, error) {
		return 0, errors.New("boom")
	}
	if _, err := Attribute(model.Zen(), bad, OSLadder(), DefaultConfig()); err == nil {
		t.Fatal("expected error")
	}
}

func TestMergeAccumulates(t *testing.T) {
	a := kernel.BootParams{MDSOff: true}
	b := kernel.BootParams{NoPTI: true}
	c := merge(a, b)
	if !c.MDSOff || !c.NoPTI {
		t.Errorf("merge lost fields: %+v", c)
	}
	d := merge(c, kernel.BootParams{SpectreV2: "off"})
	if !d.MDSOff || !d.NoPTI || d.SpectreV2 != "off" {
		t.Errorf("merge chain: %+v", d)
	}
}

// syntheticWorkload builds a deterministic fake workload that prices a
// few mitigations directly, letting Sweep be tested cheaply.
func syntheticWorkload(m *model.CPU, mit kernel.Mitigations) (float64, error) {
	cost := 1000.0
	if mit.PTI {
		cost += 100
	}
	if mit.MDSClear {
		cost += 80
	}
	if mit.SpectreV2 != kernel.V2Off {
		cost += 20
	}
	if mit.SpectreV1 {
		cost += 5
	}
	return cost, nil
}

func TestSweepAllCPUs(t *testing.T) {
	eng := engine.New(2)
	defer eng.Close()
	attrs, err := Sweep(eng, syntheticWorkload, OSLadder(), Config{MinRuns: 2, MaxRuns: 2, RelCI: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 8 {
		t.Fatalf("attrs = %d", len(attrs))
	}
	for _, a := range attrs {
		m := model.ByName(a.CPU)
		wantPTI := 0.0
		if m.Vulns.Meltdown {
			wantPTI = 0.1
		}
		var gotPTI float64
		for _, p := range a.Parts {
			if p.Name == "Meltdown (PTI)" {
				gotPTI = p.Overhead
			}
		}
		if diff := gotPTI - wantPTI; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: PTI share = %v, want %v", a.CPU, gotPTI, wantPTI)
		}
		if a.Baseline != 1000 {
			t.Errorf("%s: baseline = %v", a.CPU, a.Baseline)
		}
	}
}

func TestDefaultConfigApplied(t *testing.T) {
	// A zero Config falls back to DefaultConfig.
	attr, err := Attribute(model.Zen(), syntheticWorkload, OSLadder(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if attr.Parts[0].Sample.N() < 2 {
		t.Error("default config did not run multiple samples")
	}
}
