package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/pred"
	"gammajoin/internal/split"
	"gammajoin/internal/trace"
	"gammajoin/internal/tuple"
)

// This file implements Gamma's other parallel relational operators —
// selection (with projection) and aggregation — which the paper's machine
// runs alongside joins ("the remaining diskless processors execute join,
// projection, and aggregate operations"; "selection and update operations
// execute only on the processors with attached disk drives").

// OpReport describes one executed non-join operator.
type OpReport struct {
	Response time.Duration
	Phases   []gamma.PhaseStat
	Rows     int64
	Net      netsim.Counters
	Disk     disk.Counters

	// Trace is the operator's simulated-time timeline (see Report.Trace).
	Trace *trace.Recorder
}

// newBareCtx builds the minimal runCtx the phase machinery needs for
// non-join operators. Callers must hold the cluster's run lock (the phase
// machinery parks its workers on the cluster pool, which drains at
// ReleaseRun).
func newBareCtx(c *gamma.Cluster, joinSites []int) *runCtx {
	if len(joinSites) == 0 {
		joinSites = c.JoinSites()
	}
	tr := c.NewTraceRecorder()
	tr.NewAttempt()
	rc := &runCtx{
		c:          c,
		q:          c.NewQuery(tr),
		spec:       &Spec{},
		m:          c.Model,
		joinSites:  joinSites,
		diskSites:  c.DiskSites(),
		netStart:   c.Net.Counters(),
		diskStart:  c.DiskCounters(),
		storeCount: make(map[int]*int64),
	}
	for _, ds := range rc.diskSites {
		var n int64
		rc.storeCount[ds] = &n
	}
	rc.attachTrace(tr)
	return rc
}

func (rc *runCtx) opReport(rows int64) *OpReport {
	return &OpReport{
		Response: rc.q.Response(),
		Phases:   rc.q.Phases,
		Rows:     rows,
		Net:      rc.c.Net.Counters().Sub(rc.netStart),
		Disk:     rc.c.DiskCounters().Sub(rc.diskStart),
		Trace:    rc.tr,
	}
}

// SelectSpec describes a parallel selection with optional projection.
type SelectSpec struct {
	Rel  *gamma.Relation
	Pred pred.Pred
	// Project lists the integer attributes to retain; nil keeps all.
	// (Output records keep the fixed 208-byte layout — non-projected
	// attributes are zeroed — so downstream operators and the wire format
	// stay uniform, as in the fixed-width Wisconsin schema.)
	Project []int
	// StoreResult materializes the qualifying tuples round-robin across
	// the disks; otherwise they are only counted (and collected if
	// Collect is set).
	StoreResult bool
	Collect     bool
}

// RunSelect executes a parallel selection: every fragment is scanned at its
// disk site (selections never run on diskless processors), the predicate is
// applied, projections are formed, and qualifying tuples are optionally
// stored round-robin.
func RunSelect(c *gamma.Cluster, s SelectSpec) (*OpReport, []tuple.Tuple, error) {
	if s.Rel == nil {
		return nil, nil, fmt.Errorf("core: RunSelect needs a relation")
	}
	for _, attr := range s.Project {
		if attr < 0 || attr >= tuple.NumInts {
			return nil, nil, fmt.Errorf("core: invalid projection attribute %d", attr)
		}
	}
	c.AcquireRun()
	defer c.ReleaseRun()
	rc := newBareCtx(c, nil)
	p := s.Pred
	if p == nil {
		p = pred.True{}
	}

	var mu sync.Mutex
	var total int64
	var collected []tuple.Tuple

	perPage := rc.m.TuplesPerPage(tuple.Bytes)
	ps := phaseSpec{
		name:    "select " + s.Rel.Name,
		ops:     opLabels{produce: "scan", consume: "store"},
		produce: map[int][]producerFn{},
		consume: map[int]consumerFn{},
	}
	for _, site := range s.Rel.FragmentSites() {
		f := s.Rel.Fragments[site]
		site := site
		ps.produce[site] = append(ps.produce[site], func(a *cost.Acct, snd *netsim.Sender) {
			rr := site
			// Projections are computed tuples, so they are materialized in
			// a slice this worker owns before being sent by reference. It is
			// sized to the fragment, so appends never move a tuple a packet
			// already references. Unprojected rows are sent straight from
			// the fragment's pages.
			var proj []tuple.Tuple
			if s.Project != nil {
				proj = make([]tuple.Tuple, 0, f.Len())
			}
			f.Scan(a, func(t *tuple.Tuple) bool {
				if !rc.scanPred(a, p, t) {
					return true
				}
				out := t
				if s.Project != nil {
					a.AddCPU(cost.ScaleNs(len(s.Project), rc.m.WriteTuple).Div(tuple.NumInts))
					proj = append(proj, projectTuple(t, s.Project))
					out = &proj[len(proj)-1]
				}
				mu.Lock()
				total++
				if s.Collect {
					collected = append(collected, *out)
				}
				mu.Unlock()
				if s.StoreResult {
					rr++
					snd.Send(rc.diskSites[rr%len(rc.diskSites)], tagStore, out, 0)
				}
				return true
			})
		})
	}
	for _, ds := range rc.diskSites {
		ds := ds
		ps.consume[ds] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			d, err := c.Disk(ds)
			if err != nil {
				rc.fail(fmt.Errorf("core: select store: %w", err))
				return
			}
			n := 0
			for _, b := range batches {
				if b.Tag != tagStore {
					continue
				}
				for range b.Tuples {
					a.AddCPU(rc.m.WriteTuple)
					n++
					if n%perPage == 0 {
						d.WritePage(a, int64(-2000-ds))
					}
				}
			}
			if n%perPage != 0 {
				d.WritePage(a, int64(-2000-ds))
			}
		}
	}
	if err := rc.runPhase(ps); err != nil {
		return nil, nil, err
	}
	return rc.opReport(total), collected, nil
}

// projectTuple zeroes every attribute outside the projection list.
func projectTuple(t *tuple.Tuple, project []int) tuple.Tuple {
	var out tuple.Tuple
	for _, attr := range project {
		out.Ints[attr] = t.Ints[attr]
	}
	return out
}

// AggFn is an aggregate function.
type AggFn int

// Aggregate functions.
const (
	Count AggFn = iota
	Sum
	Min
	Max
	Avg
)

func (f AggFn) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("AggFn(%d)", int(f))
	}
}

// AggSpec describes a (possibly grouped) parallel aggregate.
type AggSpec struct {
	Rel *gamma.Relation
	// GroupAttr is the grouping attribute, or -1 for a scalar aggregate.
	GroupAttr int
	// AggAttr is the aggregated attribute (ignored for Count).
	AggAttr int
	Fn      AggFn
	Pred    pred.Pred
	// JoinSites are the processors computing the final aggregation
	// (defaults to the cluster's join sites — diskless when present,
	// matching the paper's operator placement).
	JoinSites []int
}

// AggGroup is one aggregation result.
type AggGroup struct {
	Group int32
	Value float64
}

// partial is an in-flight aggregate for one group.
type partial struct {
	count    int64
	sum      int64
	min, max int32
}

func (p *partial) fold(v int32) {
	if p.count == 0 {
		p.min, p.max = v, v
	} else {
		if v < p.min {
			p.min = v
		}
		if v > p.max {
			p.max = v
		}
	}
	p.count++
	p.sum += int64(v)
}

func (p *partial) merge(o *partial) {
	if o.count == 0 {
		return
	}
	if p.count == 0 {
		*p = *o
		return
	}
	p.count += o.count
	p.sum += o.sum
	if o.min < p.min {
		p.min = o.min
	}
	if o.max > p.max {
		p.max = o.max
	}
}

func (p *partial) value(fn AggFn) float64 {
	switch fn {
	case Count:
		return float64(p.count)
	case Sum:
		return float64(p.sum)
	case Min:
		return float64(p.min)
	case Max:
		return float64(p.max)
	case Avg:
		return float64(p.sum) / float64(p.count)
	default:
		return 0
	}
}

// encodePartial packs a partial aggregate into a tuple for redistribution:
// Gamma ships partial aggregates between operator processes as ordinary
// tuples. 64-bit count and sum are split across two int32 slots each.
func encodePartial(group int32, p *partial) tuple.Tuple {
	var t tuple.Tuple
	t.Ints[0] = group
	t.Ints[1] = int32(p.count >> 32)
	t.Ints[2] = int32(p.count)
	t.Ints[3] = int32(p.sum >> 32)
	t.Ints[4] = int32(p.sum)
	t.Ints[5] = p.min
	t.Ints[6] = p.max
	return t
}

func decodePartial(t *tuple.Tuple) (int32, partial) {
	return t.Ints[0], partial{
		count: int64(t.Ints[1])<<32 | int64(uint32(t.Ints[2])),
		sum:   int64(t.Ints[3])<<32 | int64(uint32(t.Ints[4])),
		min:   t.Ints[5],
		max:   t.Ints[6],
	}
}

// RunAggregate executes a two-phase parallel aggregate: each fragment site
// folds its tuples into local partial aggregates, the partials are
// redistributed by hashing the group value to the aggregation processors,
// and the final groups are merged there. Results are returned sorted by
// group value.
func RunAggregate(c *gamma.Cluster, s AggSpec) (*OpReport, []AggGroup, error) {
	if s.Rel == nil {
		return nil, nil, fmt.Errorf("core: RunAggregate needs a relation")
	}
	if s.GroupAttr >= tuple.NumInts || s.AggAttr < 0 || s.AggAttr >= tuple.NumInts {
		return nil, nil, fmt.Errorf("core: invalid aggregate attributes %d/%d", s.GroupAttr, s.AggAttr)
	}
	c.AcquireRun()
	defer c.ReleaseRun()
	rc := newBareCtx(c, s.JoinSites)
	jt := &split.JoinTable{Sites: rc.joinSites}

	var mu sync.Mutex
	finals := make(map[int32]*partial)

	ps := phaseSpec{
		name:    fmt.Sprintf("aggregate %s(%s)", s.Fn, tuple.IntAttrNames[s.AggAttr]),
		end:     gamma.EndOpts{SplitEntries: jt.Entries()},
		ops:     opLabels{produce: "partial agg", consume: "merge agg"},
		produce: map[int][]producerFn{},
		consume: map[int]consumerFn{},
	}
	for _, site := range s.Rel.FragmentSites() {
		f := s.Rel.Fragments[site]
		ps.produce[site] = append(ps.produce[site], func(a *cost.Acct, snd *netsim.Sender) {
			local := make(map[int32]*partial)
			var order []int32
			f.Scan(a, func(t *tuple.Tuple) bool {
				if !rc.scanPred(a, s.Pred, t) {
					return true
				}
				a.AddCPU(rc.m.AggUpdate)
				var g int32
				if s.GroupAttr >= 0 {
					g = t.Int(s.GroupAttr)
				}
				p := local[g]
				if p == nil {
					p = &partial{}
					local[g] = p
					order = append(order, g)
				}
				p.fold(t.Int(s.AggAttr))
				return true
			})
			// Ship partials in first-seen order (deterministic). The
			// encoded partials are materialized in one slice this worker
			// owns, so the packets can carry references to them.
			parts := make([]tuple.Tuple, len(order))
			for i, g := range order {
				h := split.Hash(g, 0)
				parts[i] = encodePartial(g, local[g])
				snd.Send(jt.Lookup(h), tagProbe, &parts[i], h)
			}
		})
	}
	for _, j := range rc.joinSites {
		ps.consume[j] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			siteFinals := make(map[int32]*partial)
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				for i := range b.Tuples {
					a.AddCPU(rc.m.AggUpdate)
					g, part := decodePartial(b.Tuples[i])
					if p := siteFinals[g]; p != nil {
						p.merge(&part)
					} else {
						cp := part
						siteFinals[g] = &cp
					}
				}
			}
			mu.Lock()
			for g, p := range siteFinals {
				if q := finals[g]; q != nil {
					q.merge(p) // only possible across phases, not sites
				} else {
					finals[g] = p
				}
			}
			mu.Unlock()
		}
	}
	if err := rc.runPhase(ps); err != nil {
		return nil, nil, err
	}

	groups := make([]AggGroup, 0, len(finals))
	for g, p := range finals {
		groups = append(groups, AggGroup{Group: g, Value: p.value(s.Fn)})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Group < groups[j].Group })
	return rc.opReport(int64(len(groups))), groups, nil
}
