// Package testutil holds small shared test helpers. It must stay
// stdlib-only and free of dependencies on the rest of the repo so any
// package can import it.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// AssertNoGoroutineLeak records the current goroutine count and registers a
// cleanup that fails the test if, after a grace period, more goroutines are
// running than at the start. Call it at the top of a test, BEFORE any
// cleanup that stops the system under test — t.Cleanup runs LIFO, so the
// shutdown happens first and this check observes the settled state.
//
// The count-based check is deliberately coarse (the runtime and sibling
// parallel tests can own goroutines too), so the baseline is compared with
// retries rather than exactly once.
func AssertNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() { AssertGoroutinesBackTo(t, before) })
}

// AssertGoroutinesBackTo fails the test, with every goroutine's stack, if
// after a grace period more than before goroutines are running. Called while
// the system under test still runs, it finds a goroutine parked on something
// that only shutting the system down would wake.
func AssertGoroutinesBackTo(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var after int
	for {
		after = runtime.NumGoroutine()
		if after <= before || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
	}
}
