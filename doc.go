// Package spectrebench reproduces "Performance Evolution of Mitigating
// Transient Execution Attacks" (Behrens, Belay, Kaashoek — EuroSys 2022)
// as a simulation study in pure Go.
//
// The repository contains, from the bottom up:
//
//   - internal/isa, internal/cpu — an instruction set and a simulated
//     processor with explicit transient execution, caches, TLBs, branch
//     predictors, and store/fill buffers; eight CPU models
//     (internal/model) calibrated from the paper's Tables 2-8.
//   - internal/kernel — a Linux-like kernel whose syscall entry/exit
//     stubs execute the real mitigation instruction sequences (PTI CR3
//     swaps, verw, retpolines, IBRS writes) and whose defaults replicate
//     Table 1.
//   - internal/js — a JavaScript engine with a template JIT that inserts
//     SpiderMonkey's Spectre mitigations; internal/vmm and internal/fs —
//     a hypervisor with an emulated disk and a log-structured filesystem.
//   - internal/attacks — working PoCs for Spectre V1/V2, Meltdown, MDS,
//     SSB, L1TF and LazyFP, plus the §6 performance-counter speculation
//     probe.
//   - internal/core — the paper's contribution: the per-mitigation
//     attribution harness; internal/harness — one experiment per table
//     and figure, runnable via cmd/spectrebench.
//
// The CLI regenerates every table and figure, and the mechanism
// ablations the paper argues from:
//
//	go run ./cmd/spectrebench run all
//
// The host system's own speed is measured by the benchmark in bench/
// (sh bench/run.sh).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package spectrebench
