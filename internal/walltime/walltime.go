// Package walltime is the harness's wall-clock shim: the one place in the
// module allowed to read the real clock. Everything the simulator reports is
// simulated time from the cost model; wall-clock readings exist only for
// harness ergonomics (the -t flag's "how long did this experiment take to
// compute" lines) and never feed a simulated metric.
//
// The gammavet confine analyzer makes this package the owner of
// time.Now/Since/Sleep and friends: it is the only package allowed to call
// them. Code that wants a wall-clock reading imports this package, so every
// such dependency is greppable through one import path.
package walltime

import "time"

// Now reads the wall clock.
func Now() time.Time {
	return time.Now()
}

// Since reports wall-clock time elapsed since t.
func Since(t time.Time) time.Duration {
	return time.Since(t)
}
