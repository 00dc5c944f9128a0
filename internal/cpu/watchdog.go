package cpu

import (
	"errors"

	"spectrebench/internal/simscope"
)

// ErrCycleBudget is wrapped by the error Step returns when the core's
// simulated-cycle watchdog budget is exhausted. Callers classify it with
// errors.Is; the experiment supervisor maps it to a "timeout" status.
var ErrCycleBudget = errors.New("cpu: simulated-cycle budget exhausted")

// ErrInterrupted is wrapped by the error Step returns after
// Core.Interrupt was called (an asynchronous abort, e.g. an external
// watchdog goroutine).
var ErrInterrupted = errors.New("cpu: interrupted")

// scopeCycleBudget resolves the watchdog budget for a core constructed
// under sc: the budget the scope was scheduled with, or unlimited
// outside any scope.
func scopeCycleBudget(sc *simscope.Scope) uint64 {
	if sc == nil {
		return 0
	}
	return sc.Budget
}

// flushCycleTelemetry publishes this core's not-yet-published cycles to
// the scope it was constructed under (the supervisor's
// order-independent per-experiment cost attribution).
func (c *Core) flushCycleTelemetry() {
	if d := c.Cycles - c.flushedCycles; d > 0 {
		c.scope.AddCycles(d)
		c.flushedCycles = c.Cycles
	}
}

// FlushCycleTelemetry publishes this core's cycles accrued since the
// last periodic flush. Run-loop owners (the kernel scheduler, the
// hypervisor) call it when their loop returns: charge-heavy workloads
// can retire far fewer than one flush interval of instructions, so
// without a final flush their whole cost would go unreported.
func (c *Core) FlushCycleTelemetry() { c.flushCycleTelemetry() }

// Interrupt requests an asynchronous abort: the next Step returns an
// error wrapping ErrInterrupted. Safe to call from another goroutine —
// this is the supervisor-facing hook for killing a runaway core that is
// not bound by a cycle budget.
func (c *Core) Interrupt() { c.interrupted.Store(true) }
