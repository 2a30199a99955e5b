// Package confine seeds violations of the confine analyzer. Its import path
// ends in no owning package, so every confined construct is off limits
// here; the subdirectories are owner packages where their own constructs
// are allowed.
package confine

import (
	"math/rand"
	"sync"
	"time"

	"gammajoin/internal/fault"
	"gammajoin/internal/walltime"
)

// stolenDiskFault consumes a disk-read ordinal outside internal/disk.
func stolenDiskFault(r *fault.Registry) int {
	return r.ReadRetries(0, 1) // want `fault.Registry.ReadRetries is confined to internal/disk`
}

// stolenNetFault decides a packet's fate outside internal/netsim.
func stolenNetFault(r *fault.Registry) int {
	re, du := r.PacketFate(0, 1, 2, 3) // want `fault.Registry.PacketFate is confined to internal/netsim`
	return re + du
}

// stolenMemFault reads the memory-pressure schedule outside internal/core.
func stolenMemFault(r *fault.Registry) float64 {
	return r.MemFactor(0) // want `fault.Registry.MemFactor is confined to internal/core`
}

// stolenSwing rolls the budget-swing schedule outside internal/core.
func stolenSwing(r *fault.Registry) float64 {
	return r.BudgetSwing(0, 1) // want `fault.Registry.BudgetSwing is confined to internal/core`
}

// stolenCrash polls the crash schedule outside internal/core.
func stolenCrash(r *fault.Registry) bool {
	_, ok := r.CrashSiteAt(0, []int{0}) // want `fault.Registry.CrashSiteAt is confined to internal/core`
	return ok
}

// stolenDetect reads the failure-detection jitter outside internal/netsim.
func stolenDetect(r *fault.Registry) int {
	return r.DetectExtraBeats(3) // want `fault.Registry.DetectExtraBeats is confined to internal/netsim`
}

// stolenBackoff prices a retry wait outside internal/disk.
func stolenBackoff(r *fault.Registry) int64 {
	return r.RetryBackoffNs(2) // want `fault.Registry.RetryBackoffNs is confined to internal/disk`
}

// stolenBudgetScope resets the retry budget outside internal/core.
func stolenBudgetScope(r *fault.Registry) {
	r.BeginQueryBudget() // want `fault.Registry.BeginQueryBudget is confined to internal/core`
}

// stolenRestartCharge charges a restart outside internal/core.
func stolenRestartCharge(r *fault.Registry) {
	r.ConsumeRestart() // want `fault.Registry.ConsumeRestart is confined to internal/core`
}

// stolenBudgetCheck polls exhaustion outside internal/core.
func stolenBudgetCheck(r *fault.Registry) bool {
	return r.BudgetExhausted() // want `fault.Registry.BudgetExhausted is confined to internal/core`
}

// stolenBurst rolls the arrival-burst schedule outside internal/sched.
func stolenBurst(r *fault.Registry) int {
	return r.ArrivalBurst(0) // want `fault.Registry.ArrivalBurst is confined to internal/sched`
}

// accessors are unrestricted: Spec and BudgetUsed carry no decision state.
func accessors(r *fault.Registry) (fault.Spec, int64) {
	return r.Spec(), r.BudgetUsed()
}

// reads hits the clock-reading functions.
func reads() time.Duration {
	start := time.Now()                    // want `time.Now is confined to internal/walltime`
	_ = time.Until(start.Add(time.Second)) // want `time.Until is confined to internal/walltime`
	return time.Since(start)               // want `time.Since is confined to internal/walltime`
}

// schedules hits the clock-scheduling functions.
func schedules() {
	time.Sleep(time.Millisecond)     // want `time.Sleep is confined to internal/walltime`
	<-time.After(time.Millisecond)   // want `time.After is confined to internal/walltime`
	t := time.NewTicker(time.Second) // want `time.NewTicker is confined to internal/walltime`
	t.Stop()
}

// pureValues shows the allowed, clock-free part of package time.
func pureValues(d time.Duration) (string, time.Time) {
	return d.Round(time.Millisecond).String(), time.Unix(0, d.Nanoseconds())
}

// shimmed goes through the sanctioned shim.
func shimmed() time.Duration {
	return walltime.Since(walltime.Now())
}

// stampedReport models the profiler mistake the rule exists to catch: a
// "generated at" header would make two same-seed profile reports differ, so
// byte-deterministic report writers must never read the clock.
func stampedReport(emit func(string)) {
	emit("gammaprof: generated " + time.Now().String()) // want `time.Now is confined to internal/walltime`
}

// simStampedReport is the clean shape: report headers carry simulated time
// (already a plain duration), never the wall clock.
func simStampedReport(simResponse time.Duration, emit func(string)) {
	emit("gammaprof: response " + simResponse.String())
}

// globalRand uses the unseeded global source, which no package owns.
func globalRand(n int) int {
	return rand.Intn(n) // want `math/rand.Intn is banned in every package`
}

// spawn launches a goroutine outside the worker pool, joined or not.
func spawn(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `go statement is confined to internal/gamma`
		defer wg.Done()
		work()
	}()
	wg.Wait()
}
