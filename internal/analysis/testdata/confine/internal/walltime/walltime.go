// Package walltime is an owner-package fixture: its import path ends in
// internal/walltime, so the real clock is allowed here.
package walltime

import "time"

// Since reads the wall clock, as the real shim does.
func Since(t time.Time) time.Duration {
	return time.Since(t)
}
