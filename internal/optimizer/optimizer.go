// Package optimizer is Gamma's query layer in miniature and its only join
// planner. A query is a tree of operators (two scans, optionally filtered,
// feeding one join: the single-join shapes joinABprime, joinAselB and
// joinCselAselB the paper evaluates, and the "tree of operators" model of
// its Section 2.2). Prepare pushes the selections into the scans, applies
// the paper's conclusions, lowers the result to a core.Spec and reports
// the bucket count that Spec runs with; Explain renders the plan. The
// conclusions it applies:
//
//   - "for uniformly distributed join attribute values the parallel Hybrid
//     algorithm appears to be the algorithm of choice";
//   - "in the case where the join attribute values of the inner relation
//     are highly skewed and memory is limited, the optimizer should choose
//     a non-hash-based algorithm such as sort-merge";
//   - "bit filtering should be used because it is cheap";
//   - remote (diskless) join processors pay off for non-HPJA joins with
//     sufficient memory (Figure 16), while HPJA joins should stay local
//     (Figure 15);
//   - the bucket count comes from the memory ratio corrected by the
//     Appendix-A bucket analyzer (core.Buckets, the rule the run uses).
package optimizer

import (
	"fmt"
	"slices"
	"strings"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/pred"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
)

// Stats summarizes what the optimizer knows about a planned join.
type Stats struct {
	// InnerBytes and MemBytes size the inner relation against the
	// aggregate join memory.
	InnerBytes int64
	MemBytes   int64
	// InnerSkew is the ratio of the most loaded joining site's share of
	// the inner relation to the mean share, under the system hash
	// function (1.0 = perfectly balanced).
	InnerSkew float64
	// HPJA reports whether both relations are hash-declustered on the
	// join attributes, making redistribution free.
	HPJA bool
}

// SkewThreshold is the imbalance beyond which a per-site hash table is
// expected to overflow: the most loaded site exceeds its memory share.
const SkewThreshold = 1.05

// MemoryLimited reports whether the join memory cannot hold the inner
// relation (the regime where skew forces repeated overflow resolution).
func (s Stats) MemoryLimited() bool { return s.MemBytes < s.InnerBytes }

// Choose picks the join algorithm per the paper's conclusions.
func Choose(s Stats) core.Algorithm {
	if s.InnerSkew > SkewThreshold && s.MemoryLimited() {
		return core.SortMerge
	}
	return core.Hybrid
}

// ChooseJoinSites places the join: HPJA joins (and memory-limited non-HPJA
// joins, whose disk buckets join like HPJA ones) run on the disk sites;
// non-HPJA joins with sufficient memory are offloaded to diskless
// processors when the cluster has them (Figure 16's crossover).
func ChooseJoinSites(c *gamma.Cluster, s Stats) []int {
	if len(c.DisklessSites()) > 0 && !s.HPJA && !s.MemoryLimited() {
		return c.DisklessSites()
	}
	return c.DiskSites()
}

// SampleSkew measures InnerSkew for a relation and join attribute by
// scanning the (already declustered) fragments and histogramming the
// system-hash site assignment across nSites joining processors. Gamma
// would keep such statistics in its catalog; we compute them exactly.
func SampleSkew(rel *gamma.Relation, attr, nSites int) float64 {
	if nSites <= 0 || rel.N == 0 {
		return 1.0
	}
	counts := make([]int64, nSites)
	var sink cost.Acct
	for _, site := range rel.FragmentSites() {
		rel.Fragments[site].Scan(&sink, func(t *tuple.Tuple) bool {
			counts[split.Hash(t.Int(attr), 0)%uint64(nSites)]++
			return true
		})
	}
	return float64(slices.Max(counts)) / (float64(rel.N) / float64(nSites))
}

// Scan reads one declustered relation, optionally filtered.
type Scan struct {
	Rel  *gamma.Relation
	Pred pred.Pred // nil = no selection
}

// Join joins two scans on integer attributes. The optimizer picks the
// algorithm, placement, bucket count, and filtering unless Force is set.
type Join struct {
	Inner, Outer         Scan
	InnerAttr, OuterAttr int
	// MemBytes is the aggregate join memory; if 0, MemRatio of the
	// (estimated, post-selection) inner size is used, defaulting to 1.0.
	MemBytes int64
	MemRatio float64
	// Force overrides the optimizer's algorithm choice.
	Force *core.Algorithm
	// InnerSelectivity is the optimizer's estimate of the fraction of
	// inner tuples surviving the selection (1.0 if unset; Gamma would
	// derive it from catalog statistics).
	InnerSelectivity float64
}

// Plan is a complete optimizer decision for one join.
type Plan struct {
	Alg       core.Algorithm
	JoinSites []int
	// Buckets is the bucket (hybrid-dyn: partition) count Spec runs with,
	// 0 for algorithms without buckets.
	Buckets   int
	BitFilter bool
	Stats     Stats
	// Remote reports a join placed on the diskless processors.
	Remote bool
	// Spec is the plan lowered for execution: core.Run(c, p.Spec) runs it.
	Spec core.Spec
}

// Prepare gathers statistics for the query, pushes its selections into the
// scans, and returns the plan. Memory sufficiency and the bucket count
// follow the estimated post-selection inner size, not the raw relation
// size.
func Prepare(c *gamma.Cluster, q Join) (Plan, error) {
	if q.Inner.Rel == nil || q.Outer.Rel == nil {
		return Plan{}, fmt.Errorf("optimizer: join needs two scans")
	}
	if q.InnerAttr < 0 || q.InnerAttr >= tuple.NumInts ||
		q.OuterAttr < 0 || q.OuterAttr >= tuple.NumInts {
		return Plan{}, fmt.Errorf("optimizer: invalid join attributes %d/%d", q.InnerAttr, q.OuterAttr)
	}
	sel := q.InnerSelectivity
	if sel <= 0 || sel > 1 {
		sel = 1.0
	}
	effInner := max(int64(float64(q.Inner.Rel.Bytes())*sel), tuple.Bytes)
	mem := q.MemBytes
	if mem <= 0 {
		ratio := q.MemRatio
		if ratio <= 0 {
			ratio = 1.0
		}
		mem = int64(ratio * float64(effInner))
	}

	inner, outer := q.Inner.Rel, q.Outer.Rel
	st := Stats{
		InnerBytes: effInner,
		MemBytes:   mem,
		InnerSkew:  SampleSkew(inner, q.InnerAttr, len(c.JoinSites())),
		HPJA: inner.Strategy == gamma.HashPart && outer.Strategy == gamma.HashPart &&
			inner.PartAttr == q.InnerAttr && outer.PartAttr == q.OuterAttr,
	}
	alg := Choose(st)
	if q.Force != nil {
		alg = *q.Force
	}
	sites := ChooseJoinSites(c, st)
	if alg == core.SortMerge {
		sites = c.DiskSites() // sort-merge cannot use diskless processors
	}
	p := Plan{
		Alg:       alg,
		JoinSites: sites,
		// "Bit filtering should be used because it is cheap and can
		// significantly reduce response times."
		BitFilter: true,
		Stats:     st,
		Remote:    len(sites) > 0 && sites[0] >= len(c.DiskSites()),
		Spec: core.Spec{
			Alg:           alg,
			R:             inner,
			S:             outer,
			RAttr:         q.InnerAttr,
			SAttr:         q.OuterAttr,
			RPred:         q.Inner.Pred,
			SPred:         q.Outer.Pred,
			MemBytes:      mem,
			JoinSites:     sites,
			BitFilter:     true,
			InnerSizeHint: effInner,
			StoreResult:   true,
		},
	}
	p.Buckets = core.Buckets(c, p.Spec)
	return p, nil
}

// Explain renders the plan the way a database EXPLAIN would.
func (p Plan) Explain() string {
	var sb strings.Builder
	placement := "local (disk sites)"
	if p.Remote {
		placement = "remote (diskless sites)"
	}
	fmt.Fprintf(&sb, "JOIN [%v] on %s = %s  (%s", p.Alg,
		tuple.IntAttrNames[p.Spec.RAttr], tuple.IntAttrNames[p.Spec.SAttr], placement)
	if p.Buckets > 0 {
		fmt.Fprintf(&sb, ", %d buckets", p.Buckets)
	}
	if p.BitFilter {
		sb.WriteString(", bit filters")
	}
	fmt.Fprintf(&sb, "; inner skew %.2f, HPJA %v, mem %d KB)\n",
		p.Stats.InnerSkew, p.Stats.HPJA, p.Stats.MemBytes/1024)
	explainScan(&sb, "inner", p.Spec.R, p.Spec.RPred)
	explainScan(&sb, "outer", p.Spec.S, p.Spec.SPred)
	return sb.String()
}

func explainScan(sb *strings.Builder, role string, rel *gamma.Relation, where pred.Pred) {
	fmt.Fprintf(sb, "  SCAN [%s] %s (%d tuples, %s on %s",
		role, rel.Name, rel.N, rel.Strategy, tuple.IntAttrNames[rel.PartAttr])
	if where != nil {
		fmt.Fprintf(sb, ", where %v", where)
	}
	sb.WriteString(")\n")
}
