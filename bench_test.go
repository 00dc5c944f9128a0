package spectrebench

// One benchmark per table and figure of the paper, plus ablation benches
// for the design choices DESIGN.md calls out. Each benchmark regenerates
// its artifact and reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports (in shape; the substrate
// is a simulator, not the authors' testbed).

import (
	"fmt"
	"testing"

	"spectrebench/internal/attacks"
	"spectrebench/internal/core"
	"spectrebench/internal/engine"
	"spectrebench/internal/harness"
	"spectrebench/internal/isa"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/simscope"
	"spectrebench/internal/stats"
	"spectrebench/internal/workloads/lebench"
	"spectrebench/internal/workloads/lfs"
	"spectrebench/internal/workloads/octane"
	"spectrebench/internal/workloads/parsec"
)

func runExperiment(b *testing.B, id string) *harness.Table {
	b.Helper()
	e, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	// Each iteration runs the way a supervised attempt does, under a
	// scope carrying a fresh engine, so it simulates every cell anew.
	var tbl *harness.Table
	for i := 0; i < b.N; i++ {
		eng := engine.New(0)
		restore := simscope.Enter(&simscope.Scope{Tag: eng})
		var err error
		tbl, err = e.Run()
		restore()
		eng.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkTable1MitigationSelection regenerates Table 1 (and Table 2's
// catalogue) from the kernel's default-selection logic.
func BenchmarkTable1MitigationSelection(b *testing.B) {
	tbl := runExperiment(b, "table1")
	b.ReportMetric(float64(len(tbl.Rows)), "mitigation-rows")
}

// BenchmarkTable3SyscallSysret measures syscall/sysret/swap-cr3 cycles.
func BenchmarkTable3SyscallSysret(b *testing.B) {
	runExperiment(b, "table3")
	sc, err := harness.MeasureSyscall(model.Broadwell())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(sc, "broadwell-syscall-cycles")
}

// BenchmarkTable4Verw measures the MDS buffer-clear cost.
func BenchmarkTable4Verw(b *testing.B) {
	runExperiment(b, "table4")
	v, err := harness.MeasureVerw(model.Broadwell())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "broadwell-verw-cycles")
}

// BenchmarkTable5IndirectBranch measures indirect-branch costs under
// IBRS and both retpoline flavours.
func BenchmarkTable5IndirectBranch(b *testing.B) {
	runExperiment(b, "table5")
}

// BenchmarkTable6IBPB measures the prediction-barrier cost.
func BenchmarkTable6IBPB(b *testing.B) {
	runExperiment(b, "table6")
	v, err := harness.MeasureIBPB(model.Zen())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "zen-ibpb-cycles")
}

// BenchmarkTable7RSBFill reports the RSB-stuffing cost.
func BenchmarkTable7RSBFill(b *testing.B) {
	runExperiment(b, "table7")
}

// BenchmarkTable8Lfence measures the load-fence cost with loads in
// flight.
func BenchmarkTable8Lfence(b *testing.B) {
	runExperiment(b, "table8")
}

// BenchmarkFig2LEBench regenerates Figure 2: the LEBench overhead
// decomposition across all eight CPUs.
func BenchmarkFig2LEBench(b *testing.B) {
	eng := engine.New(0)
	defer eng.Close()
	for i := 0; i < b.N; i++ {
		wl := func(m *model.CPU, mit kernel.Mitigations) (float64, error) {
			res, err := lebench.Run(m, mit)
			if err != nil {
				return 0, err
			}
			vals := make([]float64, len(res))
			for j, r := range res {
				vals[j] = r.Cycles
			}
			return stats.GeoMean(vals), nil
		}
		cfg := core.Config{MinRuns: 2, MaxRuns: 2, RelCI: 0.05}
		attrs, err := core.Sweep(eng, wl, core.OSLadder(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, a := range attrs {
				switch a.CPU {
				case "Broadwell":
					b.ReportMetric(a.Total*100, "broadwell-overhead-%")
				case "Ice Lake Server":
					b.ReportMetric(a.Total*100, "icelakesrv-overhead-%")
				case "Zen 3":
					b.ReportMetric(a.Total*100, "zen3-overhead-%")
				}
			}
		}
	}
}

// BenchmarkFig3Octane regenerates Figure 3 on a representative pair of
// CPUs (the full 8-CPU table is `spectrebench run fig3`).
func BenchmarkFig3Octane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []*model.CPU{model.Broadwell(), model.IceLakeServer()} {
			a, err := octane.Attribute(m)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 && m.Uarch == "Ice Lake Server" {
				b.ReportMetric(a.Total*100, "icelakesrv-octane-overhead-%")
			}
		}
	}
}

// BenchmarkFig5SSBD regenerates Figure 5: forced-SSBD slowdowns on the
// PARSEC kernels.
func BenchmarkFig5SSBD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []*model.CPU{model.Broadwell(), model.Zen3()} {
			for _, bench := range parsec.Suite() {
				ov, err := parsec.SSBDSlowdown(m, bench.Name)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 && m.Uarch == "Zen 3" && bench.Name == "swaptions" {
					b.ReportMetric(ov*100, "zen3-swaptions-ssbd-%")
				}
			}
		}
	}
}

// BenchmarkParsecDefaultMitigations regenerates §4.5: compute-only
// workloads under default mitigations (≈0 overhead).
func BenchmarkParsecDefaultMitigations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ov, err := parsec.DefaultMitigationOverhead(model.IceLakeServer(), "swaptions")
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(ov*100, "icelakesrv-swaptions-default-%")
		}
	}
}

// BenchmarkTable9SpeculationProbe regenerates Table 9 (IBRS disabled).
func BenchmarkTable9SpeculationProbe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := attacks.ProbeMatrix(false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable10SpeculationProbeIBRS regenerates Table 10 (IBRS on).
func BenchmarkTable10SpeculationProbeIBRS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := attacks.ProbeMatrix(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMLEBench regenerates §4.4's guest-LEBench result.
func BenchmarkVMLEBench(b *testing.B) {
	runExperiment(b, "vm-lebench")
}

// BenchmarkVMLFS regenerates §4.4's LFS-against-emulated-disk result.
func BenchmarkVMLFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ov, err := lfs.HostMitigationOverhead(model.SkylakeClient(), lfs.Smallfile)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(ov*100, "skylake-smallfile-hostmit-%")
		}
	}
}

// ---- Ablations (DESIGN.md) ------------------------------------------------

// lebenchGeomean is shared by the ablation benches.
func lebenchGeomean(b *testing.B, m *model.CPU, mit kernel.Mitigations) float64 {
	b.Helper()
	res, err := lebench.Run(m, mit)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]float64, len(res))
	for i, r := range res {
		vals[i] = r.Cycles
	}
	return stats.GeoMean(vals)
}

// BenchmarkAblationRetpolineFlavorAMD compares AMD's lfence/jmp
// retpoline against generic retpolines on Zen 2 (§5.3: Linux later
// switched AMD to generic).
func BenchmarkAblationRetpolineFlavorAMD(b *testing.B) {
	m := model.Zen2()
	for i := 0; i < b.N; i++ {
		amd := lebenchGeomean(b, m, kernel.Defaults(m))
		gen := lebenchGeomean(b, m,
			kernel.BootParams{SpectreV2: "retpoline,generic"}.Apply(m, kernel.Defaults(m)))
		if i == b.N-1 {
			b.ReportMetric((gen/amd-1)*100, "generic-vs-amd-%")
		}
	}
}

// BenchmarkAblationEagerVsLazyFPU shows the paper's §3.1 aside: for
// FPU-using processes that context switch, eager switching (xsaveopt on
// every switch) beats lazy trapping (#NM round trip on first FPU use),
// so the LazyFP mitigation is a speed-up.
func BenchmarkAblationEagerVsLazyFPU(b *testing.B) {
	m := model.SkylakeClient()
	// Two processes that each use the FPU between yields: under lazy
	// switching every reschedule costs a #NM trap.
	prog := func() *isa.Program {
		a := isa.NewAsm()
		a.MovI(isa.R7, kernel.SysFork)
		a.Syscall()
		a.MovI(isa.R9, 40)
		a.Label("loop")
		a.FMovI(0, 1.5)
		a.FAdd(0, 0) // FPU use after each switch
		a.MovI(isa.R7, kernel.SysYield)
		a.Syscall()
		a.SubI(isa.R9, 1)
		a.CmpI(isa.R9, 0)
		a.Jne("loop")
		a.MovI(isa.R1, 0)
		a.MovI(isa.R7, kernel.SysExit)
		a.Syscall()
		return a.MustAssemble(kernel.UserCodeBase)
	}()
	run := func(mit kernel.Mitigations) float64 {
		mach := core.Boot(m, mit)
		mach.Kernel.NewProcess("fpu", prog)
		if err := mach.Kernel.RunProcessToCompletion(10_000_000); err != nil {
			b.Fatal(err)
		}
		return float64(mach.CPU.Cycles)
	}
	for i := 0; i < b.N; i++ {
		eager := run(kernel.Defaults(m))
		lazy := run(kernel.BootParams{LazyFPU: true}.Apply(m, kernel.Defaults(m)))
		if i == b.N-1 {
			b.ReportMetric((lazy/eager-1)*100, "lazy-vs-eager-%")
		}
	}
}

// BenchmarkAblationRSBStuffing isolates the context-switch RSB refill.
func BenchmarkAblationRSBStuffing(b *testing.B) {
	m := model.Broadwell()
	for i := 0; i < b.N; i++ {
		with := lebenchGeomean(b, m, kernel.Defaults(m))
		without := lebenchGeomean(b, m, kernel.BootParams{NoRSBStuff: true}.Apply(m, kernel.Defaults(m)))
		if i == b.N-1 {
			b.ReportMetric((with/without-1)*100, "rsb-stuffing-%")
		}
	}
}

// BenchmarkAblationSSBDPolicy compares the three SSBD policies (off /
// seccomp opt-in / forced) on the swaptions kernel.
func BenchmarkAblationSSBDPolicy(b *testing.B) {
	m := model.Zen3()
	for i := 0; i < b.N; i++ {
		base, err := parsec.Run(m, kernel.BootParams{NoSSBSD: true}.Apply(m, kernel.Defaults(m)), "swaptions")
		if err != nil {
			b.Fatal(err)
		}
		forced, err := parsec.Run(m, kernel.BootParams{SSBDOn: true}.Apply(m, kernel.Defaults(m)), "swaptions")
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric((forced/base-1)*100, "forced-ssbd-%")
		}
	}
}

// BenchmarkAblationPCID quantifies §5.1: PCIDs make PTI's TLB impact
// marginal. Without them, every PTI page-table swap flushes the TLB.
func BenchmarkAblationPCID(b *testing.B) {
	m := model.Broadwell()
	prog := func() *isa.Program {
		a := isa.NewAsm()
		a.MovI(isa.R9, 60)
		a.Label("loop")
		// A syscall (two CR3 swaps under PTI) followed by a data walk
		// whose translations the no-PCID flush keeps evicting.
		a.MovI(isa.R7, kernel.SysGetPID)
		a.Syscall()
		a.MovI(isa.R1, kernel.UserDataBase)
		a.MovI(isa.R2, 0)
		a.Label("walk")
		a.Load(isa.R3, isa.R1, 0)
		a.AddI(isa.R1, 4096)
		a.AddI(isa.R2, 1)
		a.CmpI(isa.R2, 16)
		a.Jne("walk")
		a.SubI(isa.R9, 1)
		a.CmpI(isa.R9, 0)
		a.Jne("loop")
		a.MovI(isa.R1, 0)
		a.MovI(isa.R7, kernel.SysExit)
		a.Syscall()
		return a.MustAssemble(kernel.UserCodeBase)
	}()
	run := func(noPCID bool) float64 {
		mach := core.Boot(m, kernel.Defaults(m))
		mach.CPU.NoPCID = noPCID
		mach.Kernel.NewProcess("pcid", prog)
		if err := mach.Kernel.RunProcessToCompletion(10_000_000); err != nil {
			b.Fatal(err)
		}
		return float64(mach.CPU.Cycles)
	}
	for i := 0; i < b.N; i++ {
		with := run(false)
		without := run(true)
		if i == b.N-1 {
			b.ReportMetric((without/with-1)*100, "no-pcid-extra-%")
		}
	}
}

// BenchmarkAblationSpeculationOff runs LEBench on a hypothetical
// no-speculation Broadwell: the upper bound a "disable speculation"
// mitigation would cost in mispredict-penalty terms is zero here
// because the simulator charges prediction penalties identically; the
// bench instead quantifies how much transient-window simulation costs
// the host (a simulator-engineering ablation).
func BenchmarkAblationSpeculationOff(b *testing.B) {
	m := model.Broadwell()
	for i := 0; i < b.N; i++ {
		_ = lebenchGeomean(b, m, kernel.Defaults(m))
	}
}

// BenchmarkAblationEngineJobs runs a cell-heavy batch (fig3 + whatif
// share their fully hardened octane/suite cells) through the engine at
// 1 and 4 workers on cold caches: the parallel/serial wall-clock ratio
// is the tentpole metric of the scheduler PR.
func BenchmarkAblationEngineJobs(b *testing.B) {
	exps := make([]harness.Experiment, 0, 2)
	for _, id := range []string{"fig3", "whatif-v1hw"} {
		e, ok := harness.Lookup(id)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := engine.New(jobs)
				results := harness.SuperviseEach(exps, harness.RunConfig{Engine: eng}, nil)
				if n := harness.Failed(results); n != 0 {
					b.Fatalf("%d experiments failed", n)
				}
				hits, misses := eng.Stats()
				eng.Close()
				if i == b.N-1 {
					b.ReportMetric(float64(hits), "cache-hits")
					b.ReportMetric(float64(misses), "cache-misses")
				}
			}
		})
	}
}

// BenchmarkAblationEngineCacheWarm measures a warm-cache re-run: the
// same batch resubmitted to an engine that has already simulated every
// cell costs only key construction and cache lookups.
func BenchmarkAblationEngineCacheWarm(b *testing.B) {
	e, ok := harness.Lookup("fig3")
	if !ok {
		b.Fatal("unknown experiment fig3")
	}
	eng := engine.New(1)
	defer eng.Close()
	cfg := harness.RunConfig{Engine: eng}
	if res := harness.SuperviseEach([]harness.Experiment{e}, cfg, nil)[0]; res.Status != harness.StatusOK {
		b.Fatalf("warmup: %s: %v", res.Status, res.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := harness.SuperviseEach([]harness.Experiment{e}, cfg, nil)[0]; res.Status != harness.StatusOK {
			b.Fatalf("warm run: %s: %v", res.Status, res.Err)
		}
	}
	hits, _ := eng.Stats()
	b.ReportMetric(float64(hits), "cache-hits")
}
