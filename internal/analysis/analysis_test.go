package analysis

import "testing"

// TestRepoClean is the live gate, the same check `make vet` runs: every
// analyzer reports nothing on every package of the module.
func TestRepoClean(t *testing.T) {
	pkgs, diags, err := Check("../../...") // the module root
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("checked only %d packages: %v", len(pkgs), pkgs)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// assertClean runs one analyzer over named repository packages and fails on
// any diagnostic; the per-analyzer live gates use it.
func assertClean(t *testing.T, a *Analyzer, pkgs ...string) {
	t.Helper()
	loader, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		lp, err := loader.Load(loader.ModRoot() + "/" + pkg)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run(a, lp)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}
