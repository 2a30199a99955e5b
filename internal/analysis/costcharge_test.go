package analysis

import "testing"

func TestCostChargeSeededViolations(t *testing.T) {
	RunTest(t, "testdata/costcharge", CostCharge)
}

// TestCostChargeCleanOnCore is the live gate on the execution engine: it
// must contain no unpriced traffic.
func TestCostChargeCleanOnCore(t *testing.T) {
	assertClean(t, CostCharge, "internal/core")
}
