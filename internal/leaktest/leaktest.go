// Package leaktest fails tests that leave goroutines behind. A leaked
// goroutine — a map task that outlives its cancelled job, a handler left
// blocked on a channel — is invisible to a passing test and
// surfaces later as a -race report or a hung suite. Checking at test end
// turns the leak into an attributed failure with the goroutine's stack.
//
// Usage, first thing in the test body:
//
//	func TestConcurrentThing(t *testing.T) {
//		leaktest.Check(t)
//		...
//	}
//
// Check registers a t.Cleanup, so it runs after the test function (and any
// later-registered cleanups) finish. Goroutines that are part of the
// harness — the testing runner, parallel siblings, signal handling — are
// ignored; everything else still running after a grace period fails the
// test. The grace period absorbs goroutines that are mid-exit when the
// test returns (a drained worker between its last send and its return).
package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// patience bounds how long Check waits for straggler goroutines to finish
// exiting before declaring them leaked.
const patience = 2 * time.Second

// Check arranges for t to fail if goroutines beyond the test harness are
// still running when the test (including its cleanups) completes.
func Check(t testing.TB) {
	t.Helper()
	t.Cleanup(func() {
		if stacks := Leaked(patience); len(stacks) > 0 {
			t.Errorf("leaktest: %d leaked goroutine(s):\n\n%s",
				len(stacks), strings.Join(stacks, "\n\n"))
		}
	})
}

// Leaked polls until every non-harness goroutine has exited or the grace
// period elapses, then returns the stacks of those remaining (nil when
// clean). Exposed for the helper's own tests; production tests use Check.
func Leaked(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		stacks := interesting()
		if len(stacks) == 0 || time.Now().After(deadline) {
			return stacks
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// interesting snapshots all goroutine stacks and filters out the calling
// goroutine and known harness goroutines.
func interesting() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		g = strings.TrimSpace(g)
		if g == "" || i == 0 { // the first stack is this goroutine's
			continue
		}
		if harness(g) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// harness reports whether a goroutine stack belongs to the test harness or
// the runtime rather than code under test.
var harnessMarkers = []string{
	"testing.Main(",               // the process main goroutine
	"testing.(*M).",               // M.Run machinery
	"testing.runTests",            // top-level test loop
	"testing.tRunner(",            // a sibling test's runner (t.Parallel)
	"testing.(*T).Parallel(",      // a parallel test waiting its turn
	"testing.runFuzzing(",         // fuzz harness
	"testing.(*F).Fuzz(",          // fuzz workers
	"os/signal.signal_recv",       // signal delivery
	"os/signal.loop(",             // signal forwarding loop
	"runtime.ensureSigM",          // signal mask goroutine
	"runtime.ReadTrace",           // execution tracer reader
	"runtime/pprof.profileWriter", // active CPU profile
}

func harness(stack string) bool {
	for _, m := range harnessMarkers {
		if strings.Contains(stack, m) {
			return true
		}
	}
	return false
}
