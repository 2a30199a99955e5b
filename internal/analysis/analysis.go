// Package analysis is a small, dependency-free static-analysis framework
// modelled on golang.org/x/tools/go/analysis, plus the four gammavet
// analyzers that machine-check the simulator's reproducibility claims:
//
//   - determinism: map iteration order must not reach anything observable
//     outside the iterating function;
//   - costcharge: tuple traffic and page I/O must flow through the priced
//     primitives of internal/netsim, internal/disk and internal/wiss, paired
//     with cost.Model charges;
//   - unitflow: cost units (SimNs, SimMs, Pages, Tuples, Bytes) must not be
//     laundered by conversion;
//   - confine: the real clock, fault decisions, global randomness and go
//     statements stay in the one package that owns each.
//
// Every analyzer runs on every package; none has a scope or an escape
// hatch. The framework exists because the repository is stdlib-only by
// design (see README): analyzers here are built directly on go/ast and
// go/types, and a loader in load.go resolves module-local imports without
// the go/packages machinery. Check is the whole-module driver that
// cmd/gammavet and TestRepoClean share; vettest.go is the
// analysistest-style harness used by the seeded-violation suites.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// analyzers is the gammavet suite, applied to every package.
var analyzers = []*Analyzer{Determinism, CostCharge, UnitFlow, Confine}

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (e.g. "determinism").
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the analyzer against one loaded package, reporting
	// findings through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzer to a loaded package and returns its diagnostics
// sorted by position.
func Run(a *Analyzer, lp *LoadedPackage) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     lp.Fset,
		Files:    lp.Files,
		Pkg:      lp.Pkg,
		Info:     lp.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	sort.Slice(pass.diags, func(i, j int) bool {
		a, b := pass.diags[i].Pos, pass.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return pass.diags, nil
}

// isPkgNamed reports whether t (after unwrapping pointers and aliases) is
// the named type pkgSuffix.name, where pkgSuffix is matched against the end
// of the defining package's import path (so "internal/netsim" matches both
// the real module path and test fixtures).
func isPkgNamed(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || strings.HasSuffix(path, "/"+pkgSuffix)
}

// exprString renders a short source-like form of an expression for
// diagnostics (identifiers and selector chains; other shapes degrade to a
// placeholder).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return exprString(e.X)
	default:
		return "expression"
	}
}
