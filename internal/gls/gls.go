// Package gls provides the one goroutine-identity primitive the
// simulation-scope layer needs: a stable numeric ID for the calling
// goroutine. The runtime does not expose goroutine IDs on purpose, so
// this parses the header line of runtime.Stack — the documented,
// stable-for-a-decade "goroutine N [state]:" format.
//
// A parse is not cheap. runtime.Stack formats the caller's whole stack,
// frame by frame, even though only the header line lands in the buffer,
// so the cost grows with stack depth: on a 2-vCPU host it measured ~4µs
// on a shallow test stack and ~22µs thirty frames deep. It also takes the runtime's global
// print lock, so concurrent parses serialize: two goroutines parsing at
// once got no more parses per second than one. Nothing on a per-cell
// path should parse. Long-lived goroutines that make many
// identity-keyed lookups — the engine's workers above all — call ID
// once, keep the result, and use the *G variants of the simscope API
// (EnterG, CurrentG); code that waits on cells names the scope to
// charge (engine.Task.Wait) instead of looking it up by goroutine. ID
// itself stays allocation-free: the stack snapshot lands in a stack
// buffer and only the leading decimal is read.
package gls

import "runtime"

// ID returns the calling goroutine's ID.
//
// Callers on hot paths should cache the result for the lifetime of the
// goroutine rather than re-parsing: the value is stable from the
// goroutine's birth to its exit and is never reused while the goroutine
// is alive.
func ID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine " (10 bytes) and parse the decimal that follows.
	var id uint64
	for i := 10; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
