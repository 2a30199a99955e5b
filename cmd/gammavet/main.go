// Command gammavet is the multichecker driver for the repository's custom
// analyzers (internal/analysis): it enforces that the simulator stays
// bit-for-bit deterministic and that no tuple traffic bypasses the cost
// model. CI runs it alongside go vet and the race detector.
//
// Usage:
//
//	go run ./cmd/gammavet ./...
//	go run ./cmd/gammavet ./internal/core ./internal/netsim
//	go run ./cmd/gammavet -determinism-pkgs internal/core -costcharge-pkgs "" ./...
//
// Analyzers are scoped: determinism applies to the simulator packages
// (internal/core, internal/netsim, internal/cost, internal/disk,
// internal/fault, internal/trace by default), costcharge to the execution
// engine (internal/core), faultpoint to every package that could plausibly
// touch the fault registry, unitflow to every package that handles cost
// units, leakcheck to the packages that launch goroutines, and wallclock to
// the whole module. Packages outside all scopes are skipped. Exit status is
// 1 when any diagnostic is reported and 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gammajoin/internal/analysis"
)

func main() {
	var (
		determinismPkgs = flag.String("determinism-pkgs",
			"internal/core,internal/netsim,internal/cost,internal/disk,internal/fault,internal/trace",
			"comma-separated package path suffixes checked by the determinism analyzer")
		costchargePkgs = flag.String("costcharge-pkgs", "internal/core",
			"comma-separated package path suffixes checked by the costcharge analyzer")
		faultpointPkgs = flag.String("faultpoint-pkgs",
			"internal/core,internal/disk,internal/netsim,internal/gamma,internal/wiss,internal/experiments",
			"comma-separated package path suffixes checked by the faultpoint analyzer")
		unitflowPkgs = flag.String("unitflow-pkgs",
			"internal/core,internal/netsim,internal/disk,internal/wiss,internal/gamma,internal/sched,internal/trace,internal/experiments,cmd/gammabench",
			"comma-separated package path suffixes checked by the unitflow analyzer")
		leakcheckPkgs = flag.String("leakcheck-pkgs", "internal/core,internal/sched,internal/netsim",
			"comma-separated package path suffixes checked by the leakcheck analyzer")
		wallclockPkgs = flag.String("wallclock-pkgs", "*",
			"comma-separated package path suffixes checked by the wallclock analyzer (\"*\" = every package)")
		verbose = flag.Bool("v", false, "list analyzed packages")
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	scopes := map[*analysis.Analyzer][]string{
		analysis.Determinism: splitList(*determinismPkgs),
		analysis.CostCharge:  splitList(*costchargePkgs),
		analysis.FaultPoint:  splitList(*faultpointPkgs),
		analysis.UnitFlow:    splitList(*unitflowPkgs),
		analysis.LeakCheck:   splitList(*leakcheckPkgs),
		analysis.WallClock:   splitList(*wallclockPkgs),
	}

	dirs, err := resolvePatterns(loader.ModRoot(), patterns)
	if err != nil {
		fatal(err)
	}

	findings := 0
	analyzed := 0
	for _, dir := range dirs {
		path, ok := importPath(loader, dir)
		if !ok {
			continue
		}
		var todo []*analysis.Analyzer
		for _, a := range []*analysis.Analyzer{
			analysis.Determinism, analysis.CostCharge, analysis.FaultPoint,
			analysis.UnitFlow, analysis.LeakCheck, analysis.WallClock,
		} {
			if inScope(path, scopes[a]) {
				todo = append(todo, a)
			}
		}
		if len(todo) == 0 {
			continue
		}
		lp, err := loader.Load(dir)
		if err != nil {
			fatal(err)
		}
		analyzed++
		if *verbose {
			fmt.Fprintf(os.Stderr, "gammavet: %s\n", path)
		}
		for _, a := range todo {
			diags, err := analysis.Run(a, lp)
			if err != nil {
				fatal(err)
			}
			for _, d := range diags {
				fmt.Println(d)
				findings++
			}
		}
	}
	if analyzed == 0 {
		fatal(fmt.Errorf("no packages matched both the patterns and the analyzer scopes"))
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "gammavet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gammavet:", err)
	os.Exit(2)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func inScope(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if s == "*" || path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// resolvePatterns expands "./..."-style patterns into package directories,
// skipping testdata, hidden directories, and directories without Go files.
func resolvePatterns(modRoot string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "" || pat == "." {
			pat = modRoot
		}
		root, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPath maps a directory to its module import path, reporting ok=false
// for directories with no non-test Go files.
func importPath(loader *analysis.Loader, dir string) (string, bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
	}
	hasGo := false
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			hasGo = true
			break
		}
	}
	if !hasGo {
		return "", false
	}
	rel, err := filepath.Rel(loader.ModRoot(), dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", false
	}
	if rel == "." {
		return loader.ModPath(), true
	}
	return loader.ModPath() + "/" + filepath.ToSlash(rel), true
}
