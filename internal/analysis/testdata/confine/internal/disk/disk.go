// Package disk is an owner-package fixture: its import path ends in
// internal/disk, so the disk's fault decisions are allowed here, and only
// those.
package disk

import "gammajoin/internal/fault"

// retries consumes the disk-read schedule at its owning layer.
func retries(r *fault.Registry) (int, int64) {
	return r.ReadRetries(0, 1), r.RetryBackoffNs(1)
}

// stolenNetFault is still another layer's decision.
func stolenNetFault(r *fault.Registry) int {
	re, _ := r.PacketFate(0, 1, 2, 3) // want `fault.Registry.PacketFate is confined to internal/netsim`
	return re
}
