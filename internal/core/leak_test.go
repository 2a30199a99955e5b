package core

import (
	"runtime"
	"testing"
	"time"

	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
)

// These tests are the dynamic half of gammavet's goroutine rule (confine
// keeps every library go statement in the phase worker pool): every worker
// runPhase launches is joined before the run returns, on the happy path and
// on every abort path — scripted site crashes absorbed by restart, crashes
// absorbed by mirrored failover, and errors surfaced mid-query. Run under
// -race (make race / make deflake), a leaked worker also shows up as a data
// race on the phase accounts, so these tests gate both the count and the
// synchronization.

// quiesce waits for the goroutine count to return to the baseline, giving
// the runtime a moment to retire exiting goroutines. (Polling the count is
// inherently racy-by-design; the deadline only bounds the wait.)
func quiesce(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeakOnCrashRestart: a scripted mid-unit crash aborts the
// phase at entry and climbs to the full-restart rung; nothing may leak.
func TestNoGoroutineLeakOnCrashRestart(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, alg := range allAlgs {
		rep := crashRun(t, alg, &fault.CrashPoint{Phase: midUnitCrash[alg], Site: 3}, false)
		if rep.Restarts == 0 {
			t.Errorf("%v: crash did not trigger a restart", alg)
		}
	}
	quiesce(t, baseline)
}

// TestNoGoroutineLeakOnFailover: the same crashes absorbed by chained-
// declustered mirrors — the failover redo path must also quiesce.
func TestNoGoroutineLeakOnFailover(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, alg := range allAlgs {
		rep := crashRun(t, alg, &fault.CrashPoint{Phase: midUnitCrash[alg], Site: 3}, true)
		if rep.FailedOver == 0 {
			t.Errorf("%v: crash was not absorbed by failover", alg)
		}
	}
	quiesce(t, baseline)
}

// TestNoGoroutineLeakOnSpecError: a Run that fails validation before any
// phase launches must not leave anything behind either.
func TestNoGoroutineLeakOnSpecError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := gamma.NewLocal(4, nil)
	f := mkFixture(t, c, 1000, gamma.HashPart, tuple.Unique1)
	spec := Spec{Alg: Algorithm(99), R: f.r, S: f.s, RAttr: tuple.Unique1, SAttr: tuple.Unique1, MemBytes: 1 << 20}
	if _, err := Run(c, spec); err == nil {
		t.Fatal("bogus algorithm should error")
	}
	quiesce(t, baseline)
}
