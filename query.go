package gammajoin

import (
	"gammajoin/internal/core"
	"gammajoin/internal/optimizer"
	"gammajoin/internal/tuple"
)

// QuerySpec describes a declarative single-join query in the shape the
// paper's benchmark queries take: two scans (with optional selections)
// feeding a join. The optimizer chooses the algorithm, placement, bucket
// count, and filtering; selections are pushed into the scans.
type QuerySpec struct {
	Inner, Outer           *Relation
	InnerWhere, OuterWhere Predicate
	// On is the join attribute; OuterOn overrides the outer side when the
	// attributes differ (e.g. the NU joins).
	On      string
	OuterOn string
	// MemoryBytes (or MemoryRatio of the estimated post-selection inner,
	// default 1.0) sizes the aggregate join memory.
	MemoryBytes int64
	MemoryRatio float64
	// InnerSelectivity estimates the fraction of inner tuples surviving
	// InnerWhere (1.0 if unset), as Gamma's optimizer would from catalog
	// statistics.
	InnerSelectivity float64
	// Force overrides the optimizer's algorithm choice.
	Force *Algorithm
}

// QueryPlan is a prepared, explainable, executable query.
type QueryPlan struct {
	m *Machine
	p optimizer.Plan
}

// PrepareQuery optimizes a query without running it.
func (m *Machine) PrepareQuery(q QuerySpec) (*QueryPlan, error) {
	innerAttr, err := tuple.AttrIndex(q.On)
	if err != nil {
		return nil, err
	}
	outerAttr := innerAttr
	if q.OuterOn != "" {
		if outerAttr, err = tuple.AttrIndex(q.OuterOn); err != nil {
			return nil, err
		}
	}
	p, err := optimizer.Prepare(m.c, optimizer.Join{
		Inner:            optimizer.Scan{Rel: q.Inner, Pred: q.InnerWhere},
		Outer:            optimizer.Scan{Rel: q.Outer, Pred: q.OuterWhere},
		InnerAttr:        innerAttr,
		OuterAttr:        outerAttr,
		MemBytes:         q.MemoryBytes,
		MemRatio:         q.MemoryRatio,
		InnerSelectivity: q.InnerSelectivity,
		Force:            q.Force,
	})
	if err != nil {
		return nil, err
	}
	return &QueryPlan{m: m, p: p}, nil
}

// Explain renders the optimizer's plan.
func (qp *QueryPlan) Explain() string { return qp.p.Explain() }

// Algorithm returns the chosen join algorithm.
func (qp *QueryPlan) Algorithm() Algorithm { return qp.p.Alg }

// Remote reports whether the join was placed on diskless processors.
func (qp *QueryPlan) Remote() bool { return qp.p.Remote }

// Execute runs the plan.
func (qp *QueryPlan) Execute() (*Report, error) { return core.Run(qp.m.c, qp.p.Spec) }

// Query prepares and executes in one call.
func (m *Machine) Query(q QuerySpec) (*Report, error) {
	qp, err := m.PrepareQuery(q)
	if err != nil {
		return nil, err
	}
	return qp.Execute()
}
