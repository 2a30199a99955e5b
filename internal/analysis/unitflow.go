package analysis

import (
	"go/ast"
	"go/types"
)

// UnitFlow enforces the typed-unit discipline of internal/cost: once a
// quantity is a SimNs, SimMs, Pages, Tuples, or Bytes it must stay in its
// unit until it leaves through one of the sanctioned accessor methods. The
// compiler already rejects mixed arithmetic between distinct defined types;
// what it cannot reject is a *conversion* that launders the unit — and one
// laundered conversion is all it takes to charge milliseconds as nanoseconds
// and silently corrupt every figure downstream.
//
// Outside internal/cost (whose constructors are the sanctioned bridges),
// unitflow flags three conversion shapes, ignoring constant expressions:
//
//  1. converting one unit type directly into another — SimNs(ms) turns 5
//     milliseconds into 5 nanoseconds; cross-unit movement must go through
//     a converting helper ((SimMs).Ns, ScaleNs) that performs the scaling;
//  2. manufacturing a time unit from a bare non-constant expression —
//     SimNs(x) asserts x is already nanoseconds with no evidence; use
//     cost.Ns, cost.DurNs, cost.Ms, or cost.ScaleNs, whose names state the
//     claim at the call site. Count units (Pages, Tuples, Bytes) may be
//     built from bare integers anywhere: their values arrive from atomic
//     counters and size computations that have no other honest spelling;
//  3. converting any unit out to a bare numeric (or any other) type —
//     int64(ns), float64(pages), time.Duration(ns); the accessor methods
//     (Nanoseconds, Dur, Millis, Seconds, Count, ...) are the exits, and
//     each documents which scaling it applies.
var UnitFlow = &Analyzer{
	Name: "unitflow",
	Doc: "forbid conversions that launder cost units (SimNs, SimMs, Pages, " +
		"Tuples, Bytes) into each other or into bare numbers outside internal/cost",
	Run: runUnitFlow,
}

// unitTypeName returns the cost unit-type name of t ("SimNs", "Pages", ...)
// or "" when t is not one of the unit types.
func unitTypeName(t types.Type) string {
	for _, name := range [...]string{"SimNs", "SimMs", "Pages", "Tuples", "Bytes"} {
		if isPkgNamed(t, "internal/cost", name) {
			return name
		}
	}
	return ""
}

// isTimeUnit reports whether the named unit is a duration (rule 2 applies
// only to durations, not counts).
func isTimeUnit(name string) bool { return name == "SimNs" || name == "SimMs" }

func runUnitFlow(p *Pass) error {
	if isPathSuffix(p.Pkg.Path(), "internal/cost") {
		return nil // the constructors themselves live here
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			// A conversion is a "call" whose Fun is a type.
			tv, ok := p.Info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			arg := call.Args[0]
			argTV := p.Info.Types[arg]
			if argTV.Value != nil {
				return true // constant expressions carry no runtime unit
			}
			dst := unitTypeName(tv.Type)
			src := unitTypeName(argTV.Type)
			switch {
			case dst != "" && src != "" && dst != src:
				p.Reportf(call.Pos(), "converting cost.%s to cost.%s launders the unit without scaling; use a converting helper (cost.ScaleNs, (cost.SimMs).Ns, ...)", src, dst)
			case dst != "" && src == "" && isTimeUnit(dst):
				p.Reportf(call.Pos(), "cost.%s built by conversion from a bare expression asserts its unit without evidence; construct it with cost.Ns, cost.DurNs, cost.Ms, or cost.ScaleNs", dst)
			case dst == "" && src != "":
				p.Reportf(call.Pos(), "converting cost.%s to %s discards the unit; exit through its accessor methods (Nanoseconds, Dur, Millis, Seconds, Count, ...)", src, types.TypeString(tv.Type, types.RelativeTo(p.Pkg)))
			}
			return true
		})
	}
	return nil
}
