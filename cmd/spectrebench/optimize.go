package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"spectrebench/internal/attacks"
	"spectrebench/internal/engine"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/grid"
	"spectrebench/internal/harness"
	"spectrebench/internal/optimize"
	"spectrebench/internal/store"
)

// optimizeOptions carries the optimize subcommand's flags.
type optimizeOptions struct {
	require   string
	workloads string
	uarchs    string
	combos    int
	cfg       harness.RunConfig
	storeDir  string
	verbose   bool
}

// optimizeCmd searches the boot-param lattice for the cheapest
// configuration that blocks the required attack set, per uarch, and
// prints the report (including recovered overhead vs kernel defaults)
// to w. Exit codes follow run: 0 when every uarch has a secure optimum,
// 1 when some requirement is unsatisfiable or every secure evaluation
// errored, 2 on a usage error. Like gridbench, store bookkeeping and
// engine statistics go to stderr only.
func optimizeCmd(w io.Writer, opts optimizeOptions) int {
	if opts.combos < 0 {
		// The same rule /optimize enforces with a 400.
		fmt.Fprintf(os.Stderr, "spectrebench: optimize: -combos must be 0 (full lattice) or positive, got %d\n", opts.combos)
		return 2
	}
	require, err := attacks.ParseRequirement(opts.require)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spectrebench: -require: %v\n", err)
		return 2
	}
	var workloads []grid.WorkloadSpec
	for _, name := range splitList(opts.workloads) {
		ws, err := grid.LookupWorkload(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spectrebench: -workloads: %v\n", err)
			return 2
		}
		workloads = append(workloads, ws)
	}
	uarchs, err := optimize.SelectUarchs(splitList(opts.uarchs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "spectrebench: -uarch: %v\n", err)
		return 2
	}

	// Fault activation follows gridbench exactly: the global activation
	// plus the seed stamped into every cell key, so faulted searches
	// neither pollute nor replay fault-free store entries.
	var seed uint64
	if opts.cfg.Faults {
		seed = opts.cfg.Seed
		faultinject.Activate(faultinject.Config{Seed: opts.cfg.Seed})
		defer faultinject.Deactivate()
	}

	eng := engine.Default()
	if opts.storeDir != "" {
		st, err := store.Open(opts.storeDir, store.Options{
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "spectrebench: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "spectrebench: -store: %v\n", err)
			return 2
		}
		eng.SetSecondLevel(st)
		defer func() {
			fmt.Fprintln(os.Stderr, "spectrebench: "+st.Note())
			if err := st.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "spectrebench: store close: %v\n", err)
			}
		}()
	}

	start := time.Now()
	res, err := optimize.Search(eng, optimize.Options{
		Require:   require,
		Workloads: workloads,
		Uarchs:    uarchs,
		Combos:    opts.combos,
		Prune:     true,
		Seed:      seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spectrebench: optimize: %v\n", err)
		return 1
	}
	res.Render(w, opts.verbose)
	fmt.Fprintf(os.Stderr,
		"spectrebench: optimize: %d classes evaluated across %d uarchs in %.2fs (jobs=%d)\n",
		res.Totals.Evaluated, len(res.PerUarch), time.Since(start).Seconds(),
		eng.Jobs())
	if opts.verbose {
		fmt.Fprintf(os.Stderr, "spectrebench: engine: %s\n", eng.StatsDetail())
	}
	for _, u := range res.PerUarch {
		if u.Best == nil {
			return 1
		}
	}
	return 0
}

// splitList splits a comma-separated flag value, dropping empty tokens
// (so "" means "use defaults").
func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
