package analysis

import (
	"go/ast"
	"go/types"
)

// CostCharge enforces the paper's accounting discipline in the execution
// engine: no tuple traffic and no page I/O may bypass the cost model. The
// paper's response times are exact functions of the work performed, so a
// single unpriced send silently invalidates every figure.
//
// Within each function (function literals are separate functions):
//
//  1. calls to (*netsim.Sender).Send / SendResult must be paired with a
//     cost charge in the same function — either an explicit
//     (*cost.Acct).AddCPU/AddDisk/AddNet call, or a call that passes a
//     *cost.Acct to a priced primitive (delegation);
//  2. calling (*gamma.Exchange).Deliver directly is always flagged: batches
//     must be built and priced by a netsim.Sender (passing ex.Deliver as the
//     sender's delivery callback is the sanctioned path and is not a call);
//  3. sending a netsim.Batch (or *netsim.Batch, or a batched-transport run
//     []*netsim.Batch) on a raw channel is flagged for the same reason;
//  4. constructing a netsim.Batch composite literal outside internal/netsim
//     is flagged — hand-built packets skip the per-tuple copy costs;
//  5. ranging over a channel of *netsim.Batch (or of runs, []*netsim.Batch)
//     requires a call to (*netsim.Network).Recv in the same function, so the
//     receive-side protocol cost is charged for every batch consumed.
var CostCharge = &Analyzer{
	Name: "costcharge",
	Doc: "require netsim sends and page operations to be paired with " +
		"cost.Model charges; forbid traffic that bypasses the priced primitives",
	Run: runCostCharge,
}

func runCostCharge(p *Pass) error {
	inNetsim := isPathSuffix(p.Pkg.Path(), "internal/netsim")
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCostUnit(p, fn.Body, inNetsim)
		}
	}
	return nil
}

func isPathSuffix(path, suffix string) bool {
	return path == suffix || len(path) > len(suffix) && path[len(path)-len(suffix)-1] == '/' && path[len(path)-len(suffix):] == suffix
}

// costUnit accumulates the facts about one function body.
type costUnit struct {
	p        *Pass
	inNetsim bool

	sends      []ast.Node // Sender.Send / SendResult call sites
	batchLoops []ast.Node // ranges over chan *netsim.Batch
	charged    bool       // explicit Acct.Add* call present
	delegated  bool       // a *cost.Acct is passed onward to a callee
	recvCalled bool       // Network.Recv called
}

func checkCostUnit(p *Pass, body *ast.BlockStmt, inNetsim bool) {
	u := &costUnit{p: p, inNetsim: inNetsim}
	u.walk(body)
	u.report()
}

func (u *costUnit) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCostUnit(u.p, n.Body, u.inNetsim)
			return false
		case *ast.SendStmt:
			if u.isBatch(u.p.Info.Types[n.Value].Type) {
				u.p.Reportf(n.Pos(), "netsim.Batch sent on a raw channel bypasses packet cost accounting; deliver through a netsim.Sender")
			}
		case *ast.CompositeLit:
			if !u.inNetsim && n.Type != nil {
				if t := u.p.Info.Types[n.Type].Type; t != nil && isPkgNamed(t, "internal/netsim", "Batch") {
					u.p.Reportf(n.Pos(), "netsim.Batch built by hand skips per-tuple copy costs; batches must come from a netsim.Sender")
				}
			}
		case *ast.RangeStmt:
			if tv, ok := u.p.Info.Types[n.X]; ok && tv.Type != nil {
				if ch, isChan := tv.Type.Underlying().(*types.Chan); isChan && u.isBatch(ch.Elem()) {
					u.batchLoops = append(u.batchLoops, n)
				}
			}
		case *ast.CallExpr:
			u.checkCall(n)
		}
		return true
	})
}

func (u *costUnit) checkCall(call *ast.CallExpr) {
	// Delegation: a *cost.Acct flowing into any callee means that callee
	// prices the work (every priced primitive takes the acct first).
	for _, arg := range call.Args {
		if t := u.p.Info.Types[arg].Type; t != nil && isAcct(t) {
			u.delegated = true
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := u.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	recv := sig.Recv().Type()
	name := fn.Name()
	switch {
	case isAcct(recv) && (name == "AddCPU" || name == "AddDisk" || name == "AddNet"):
		u.charged = true
	case isPkgNamed(recv, "internal/netsim", "Sender") && (name == "Send" || name == "SendResult"):
		u.sends = append(u.sends, call)
	case isPkgNamed(recv, "internal/netsim", "Network") && name == "Recv":
		u.recvCalled = true
	case isPkgNamed(recv, "internal/gamma", "Exchange") && name == "Deliver":
		u.p.Reportf(call.Pos(), "direct Exchange.Deliver call bypasses netsim.Sender packet accounting; only a sender's delivery callback may deliver")
	}
}

func (u *costUnit) report() {
	if !u.charged && !u.delegated {
		for _, s := range u.sends {
			u.p.Reportf(s.Pos(), "netsim send without a cost.Model charge in this function; charge the per-tuple work on a *cost.Acct before sending")
		}
	}
	if !u.recvCalled && !u.inNetsim {
		for _, l := range u.batchLoops {
			u.p.Reportf(l.Pos(), "draining a netsim.Batch channel without Network.Recv skips receive-side protocol costs")
		}
	}
}

func isAcct(t types.Type) bool { return isPkgNamed(t, "internal/cost", "Acct") }

// isBatch recognizes packet traffic in either granularity: a single
// *netsim.Batch or a batched-transport run ([]*netsim.Batch).
func (u *costUnit) isBatch(t types.Type) bool {
	if t == nil {
		return false
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		t = sl.Elem()
	}
	return isPkgNamed(t, "internal/netsim", "Batch")
}
