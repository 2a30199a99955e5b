package analysis

import "testing"

func TestUnitFlowSeededViolations(t *testing.T) {
	RunTest(t, "testdata/unitflow", UnitFlow)
}

// TestUnitFlowCleanOnSimulator is the live gate on the simulator: it must
// contain no unit-laundering conversions.
func TestUnitFlowCleanOnSimulator(t *testing.T) {
	assertClean(t, UnitFlow,
		"internal/core", "internal/netsim", "internal/disk", "internal/wiss",
		"internal/gamma", "internal/sched", "internal/trace", "internal/experiments",
		"internal/profile", "cmd/gammaprof")
}
