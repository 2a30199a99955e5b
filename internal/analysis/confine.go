package analysis

import (
	"go/ast"
	"go/types"
)

// Confine keeps each construct that can break reproducibility inside the
// one package that owns it. The owner table below is the whole rule:
//
//   - the time functions that read or schedule against the real clock
//     belong to internal/walltime, the harness timing shim. Simulated time
//     comes from the cost model, and code that wants a wall-clock reading
//     imports the shim, so every such dependency is greppable through one
//     import path;
//   - each fault.Registry decision method belongs to the physical layer
//     that owns its fault kind. A call anywhere else makes failure
//     decisions on code paths the determinism argument (docs/FAULTS.md)
//     never analysed, and consumes per-operation ordinals that shift every
//     later decision. Plain accessors (Spec, BudgetUsed) are not listed;
//   - math/rand and math/rand/v2 have no owner: randomness flows through
//     explicitly seeded internal/xrand sources;
//   - a go statement belongs to internal/gamma, whose worker pool runs
//     every phase worker (Phase.Go) and joins it (workerPool.drain).
//     Package main is exempt: command-line drivers may run their own
//     goroutines.
//
// A package may always use what it defines itself, so internal/fault calls
// its own methods freely.
var Confine = &Analyzer{
	Name: "confine",
	Doc: "confine the real clock, fault decisions, global randomness and " +
		"go statements to the one package that owns each",
	Run: runConfine,
}

// An owner is the package path suffix allowed to use a construct ("" for
// none) and the reason the construct is confined.
type owner struct {
	pkg, why string
}

var (
	clockOwner = owner{"internal/walltime", "simulated time comes from the cost model; harness timing goes through the wall-clock shim"}
	randOwner  = owner{"", "global randomness is not reproducible; use a seeded internal/xrand source"}
)

// faultOwner confines a fault.Registry decision method to one layer.
func faultOwner(pkg string) owner {
	return owner{pkg, "fault decisions stay at the owning layer's injection point"}
}

// confineOwners maps each guarded construct to its owner. A key is a
// package-level function ("time.Now"), a whole package ("math/rand"), a
// fault.Registry method ("fault.Registry.ReadRetries") or "go".
var confineOwners = map[string]owner{
	"time.Now": clockOwner, "time.Since": clockOwner, "time.Until": clockOwner,
	"time.Sleep": clockOwner, "time.After": clockOwner, "time.AfterFunc": clockOwner,
	"time.Tick": clockOwner, "time.NewTimer": clockOwner, "time.NewTicker": clockOwner,

	"math/rand":    randOwner,
	"math/rand/v2": randOwner,

	"go": {"internal/gamma", "every library goroutine is a pool worker started by Phase.Go and joined by the pool's drain"},

	"fault.Registry.ReadRetries":      faultOwner("internal/disk"),
	"fault.Registry.RetryBackoffNs":   faultOwner("internal/disk"),
	"fault.Registry.PacketFate":       faultOwner("internal/netsim"),
	"fault.Registry.DetectExtraBeats": faultOwner("internal/netsim"),
	"fault.Registry.MemFactor":        faultOwner("internal/core"),
	"fault.Registry.BudgetSwing":      faultOwner("internal/core"),
	"fault.Registry.CrashSiteAt":      faultOwner("internal/core"),
	// The retry budget is scoped and consumed by the query runner; touching
	// it elsewhere would race the per-query reset.
	"fault.Registry.BeginQueryBudget": faultOwner("internal/core"),
	"fault.Registry.ConsumeRestart":   faultOwner("internal/core"),
	"fault.Registry.BudgetExhausted":  faultOwner("internal/core"),
	// Arrival bursts shape the workload generator's arrival schedule.
	"fault.Registry.ArrivalBurst": faultOwner("internal/sched"),
}

func runConfine(p *Pass) error {
	// check reports name (the construct as written) when the package may
	// not use the construct that key looks up.
	check := func(n ast.Node, key, name string) {
		o, ok := confineOwners[key]
		switch {
		case !ok || o.pkg != "" && isPathSuffix(p.Pkg.Path(), o.pkg):
		case o.pkg == "":
			p.Reportf(n.Pos(), "%s is banned in every package: %s", name, o.why)
		default:
			p.Reportf(n.Pos(), "%s is confined to %s: %s", name, o.pkg, o.why)
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if p.Pkg.Name() != "main" {
					check(n, "go", "go statement")
				}
			case *ast.SelectorExpr:
				obj := p.Info.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil || obj.Pkg() == p.Pkg {
					return true
				}
				if id, ok := n.X.(*ast.Ident); ok {
					if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
						path := obj.Pkg().Path()
						name := path + "." + obj.Name()
						if _, whole := confineOwners[path]; whole {
							check(n, path, name)
						} else {
							check(n, name, name)
						}
						return true
					}
				}
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil &&
					isPkgNamed(sig.Recv().Type(), "internal/fault", "Registry") {
					name := "fault.Registry." + obj.Name()
					check(n, name, name)
				}
			}
			return true
		})
	}
	return nil
}
