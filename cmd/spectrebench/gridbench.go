package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/gls"
	"spectrebench/internal/grid"
	"spectrebench/internal/harness"
	"spectrebench/internal/store"
)

// gridOptions carries the gridbench subcommand's flags.
type gridOptions struct {
	cells    int
	cfg      harness.RunConfig
	storeDir string
	verbose  bool
}

// gridbench runs the synthetic boot-param configuration grid — the
// million-cell sweep throughput benchmark — writing one line per cell
// to w in submission order plus a deterministic trailer, so output is
// byte-identical across -jobs values and cold, warm or no -store (and
// across -faults runs at a fixed seed); timing and engine statistics go
// to stderr only, keeping w pipe-clean.
func gridbench(w io.Writer, opts gridOptions) int {
	if opts.cells <= 0 {
		fmt.Fprintln(os.Stderr, "spectrebench: gridbench: -cells must be positive")
		return 2
	}
	var seed uint64
	if opts.cfg.Faults {
		seed = opts.cfg.Seed
		faultinject.Activate(faultinject.Config{Seed: opts.cfg.Seed})
		defer faultinject.Deactivate()
	}
	cells := grid.Cells(opts.cells, seed)

	eng := engine.Default()
	// The canonicalizer folds cells onto shared class tasks and keys each
	// cell's fault seed and store identity canonically.
	eng.SetCanonicalizer(grid.Canonicalizer(cells))

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
	bcells := make([]engine.BatchCell, len(cells))
	for i, c := range cells {
		bcells[i] = engine.BatchCell{Key: c.Display, Fn: c.Run}
	}
	tasks := eng.SubmitBatch(bcells)
	// Buffered, batched result drain: one goroutine-identity parse
	// (WaitG) and hand-rolled float formatting (AppendFloat 'f'/2 is
	// %.2f) for the whole slice; per-cell Printf syscalls dominate warm
	// sweeps otherwise. Flushed once before the trailer-bearing return.
	bw := bufio.NewWriterSize(w, 1<<16)
	failed := 0
	gid := gls.ID() // one parse for the whole drain loop
	line := make([]byte, 0, 128)
	for i, t := range tasks {
		c := cells[i]
		v, err := t.WaitG(gid)
		if err != nil {
			failed++
			fmt.Fprintf(bw, "%s %s error: %v\n", c.Display.Uarch, c.Display.Config, err)
			continue
		}
		line = append(line[:0], c.Display.Uarch...)
		line = append(line, ' ')
		line = append(line, c.Display.Config...)
		line = append(line, " = "...)
		line = strconv.AppendFloat(line, v.(float64), 'f', 2, 64)
		line = append(line, " cyc\n"...)
		bw.Write(line)
	}
	elapsed := time.Since(start)
	classes := grid.Classes(cells)
	fmt.Fprintf(bw, "grid: %d cells, %d classes, %d failed\n", len(cells), classes, failed)
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "spectrebench: gridbench: write: %v\n", err)
		return 1
	}

	d := eng.StatsDetail()
	fmt.Fprintf(os.Stderr,
		"spectrebench: gridbench: %d cells in %.2fs (%.0f cells/sec, jobs=%d, dedup ratio %.1fx)\n",
		len(cells), elapsed.Seconds(), float64(len(cells))/elapsed.Seconds(),
		eng.Jobs(), float64(len(cells))/float64(classes))
	if opts.verbose {
		fmt.Fprintf(os.Stderr, "spectrebench: engine: %s\n", d)
		fmt.Fprintf(os.Stderr,
			"spectrebench: gridbench: examined %d configs -> %d classes; %d simulated, %d replayed from store\n",
			len(cells), d.Classes, d.Simulated, d.SecondLevelHits)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
