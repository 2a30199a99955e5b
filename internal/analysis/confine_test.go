package analysis

import (
	"go/types"
	"strings"
	"testing"
)

func TestConfineSeededViolations(t *testing.T) {
	for _, dir := range []string{
		"testdata/confine",
		"testdata/confine/internal/walltime",
		"testdata/confine/internal/disk",
		"testdata/confine/internal/gamma",
		"testdata/confine/cmd/tool",
	} {
		RunTest(t, dir, Confine)
	}
}

// The next three tests check one confine rule each against the same
// fixtures, so a broken rule fails under its own name.

func TestFaultPointSeededViolations(t *testing.T) {
	checkConfineRule(t, "fault.Registry.", "testdata/confine", "testdata/confine/internal/disk")
}

func TestWallClockSeededViolations(t *testing.T) {
	checkConfineRule(t, "confined to internal/walltime",
		"testdata/confine", "testdata/confine/internal/walltime", "testdata/confine/cmd/tool")
}

func TestLeakCheckSeededViolations(t *testing.T) {
	checkConfineRule(t, "go statement",
		"testdata/confine", "testdata/confine/internal/gamma", "testdata/confine/cmd/tool")
}

// checkConfineRule runs one confine rule over the fixture dirs and fails if
// no want pattern in them names the rule, so a mistyped rule cannot pass.
func checkConfineRule(t *testing.T, rule string, dirs ...string) {
	t.Helper()
	n := 0
	for _, dir := range dirs {
		n += RunRuleTest(t, dir, Confine, rule)
	}
	if n == 0 {
		t.Fatalf("no want pattern in %v names rule %q", dirs, rule)
	}
}

// TestLeakCheckCleanOnConcurrentPackages is the live gate on goroutine
// launches: the concurrent packages start goroutines only through the
// worker pool in internal/gamma, whose workers TestNoGoroutineLeak* joins.
func TestLeakCheckCleanOnConcurrentPackages(t *testing.T) {
	assertClean(t, Confine, "internal/core", "internal/sched", "internal/netsim", "internal/gamma")
}

// TestWallClockCleanRepoWide is the live gate over the packages that
// historically read the clock, plus the shim that owns it.
func TestWallClockCleanRepoWide(t *testing.T) {
	assertClean(t, Confine,
		"cmd/gammabench", "internal/walltime", "internal/core", "internal/experiments",
		"internal/profile", "cmd/gammaprof", "cmd/benchcheck")
}

// TestConfineCoversEveryRegistryMethod keeps the owner table complete: every
// exported fault.Registry method is either a decision with an owner or one
// of the plain accessors, so a new decision method cannot skip the rule.
func TestConfineCoversEveryRegistryMethod(t *testing.T) {
	accessors := map[string]bool{"Spec": true, "BudgetUsed": true}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := loader.Load(loader.ModRoot() + "/internal/fault")
	if err != nil {
		t.Fatal(err)
	}
	reg := lp.Pkg.Scope().Lookup("Registry")
	if reg == nil {
		t.Fatal("fault.Registry not found")
	}
	ms := types.NewMethodSet(types.NewPointer(reg.Type()))
	if ms.Len() == 0 {
		t.Fatal("fault.Registry has no methods")
	}
	methods := map[string]bool{}
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		methods[m.Name()] = true
		if _, owned := confineOwners["fault.Registry."+m.Name()]; m.Exported() && !owned && !accessors[m.Name()] {
			t.Errorf("fault.Registry.%s has no owner in confineOwners and is not a listed accessor", m.Name())
		}
	}
	for key := range confineOwners {
		if name, ok := strings.CutPrefix(key, "fault.Registry."); ok && !methods[name] {
			t.Errorf("confineOwners lists %s, which fault.Registry does not have", key)
		}
	}
}
