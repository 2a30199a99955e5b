// Package profile is the trace layer's analysis engine: it turns a query's
// recorded spans into a machine answer to "where did the time go?".
//
// The simulator's response-time arithmetic is exact — a query's response is
// the sum over barrier-synchronized phases of (slowest site's overlapped
// work + scheduling overhead), and the trace recorder stores exactly the
// per-goroutine accounts that arithmetic consumed. The profiler replays it:
// grouping the successful attempt's spans by phase reproduces each phase's
// per-site merged account bit-for-bit, so the critical path (who held each
// barrier, and on which resource) and the blame decomposition (typed buckets
// of response time) carry a hard accounting identity:
//
//	sum over buckets == core.Report.Response   (to the nanosecond)
//
// and, through FromQueryResult, the workload-engine extension
//
//	wait + nominal buckets + contention spread == sched QueryResult.ResponseNs.
//
// Fault overheads are carved out of the bucket they inflated: a disk-blamed
// phase's retry events move RandPage each from "disk" to "fault.retry", a
// net-blamed phase's retransmits move PacketWire each to "fault.retrans",
// redo and detection pseudo-phases land whole in "redo"/"detect", and the
// dynamic Hybrid's resurrect phase lands in "resurrect". Carve-outs are
// capped at the blamed amount, so a mismatched offline cost model can only
// shift time between buckets — it can never break the identity.
//
// Everything here is a pure read of the trace: profiling an execution cannot
// change a reported nanosecond, and all writers emit fixed-layout,
// byte-deterministic text/TSV (docs/OBSERVABILITY.md, "Where did the time
// go").
package profile

import (
	"fmt"
	"sort"
	"strings"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/trace"
)

// Resource identifies the cost-model resource a phase's barrier holder was
// bound on.
type Resource int

const (
	ResNone Resource = iota // no worker spans (scheduler-only phase)
	ResCPU
	ResDisk
	ResNet
)

var resNames = [...]string{"-", "cpu", "disk", "net"}

func (r Resource) String() string {
	if r < 0 || int(r) >= len(resNames) {
		return fmt.Sprintf("Resource(%d)", int(r))
	}
	return resNames[r]
}

// Bucket is one typed slice of response time. The buckets partition the
// response exactly: sum over buckets == response, bit-exact.
type Bucket int

const (
	BucketCPU       Bucket = iota // barrier holders bound on CPU
	BucketDisk                    // barrier holders bound on disk
	BucketNet                     // barrier holders bound on the network
	BucketSched                   // per-phase scheduling overhead
	BucketDetect                  // failure-detection pseudo-phases
	BucketRedo                    // phases re-run after a failover
	BucketResurrect               // dynamic Hybrid spill-resurrection phases
	BucketRetry                   // disk-retry carve-out of the blamed resource
	BucketRetrans                 // retransmit/duplicate carve-out
	BucketWait                    // admission wait (workload runs only)
	BucketSpread                  // contention stretch (workload runs only)
	BucketShed                    // time wasted on a query shed before admission
	BucketCancel                  // post-admission time of a deadline-canceled query
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"cpu", "disk", "net", "sched", "detect", "redo", "resurrect",
	"fault.retry", "fault.retrans", "wait", "spread", "shed", "cancel",
}

func (b Bucket) String() string {
	if b < 0 || b >= NumBuckets {
		return fmt.Sprintf("Bucket(%d)", int(b))
	}
	return bucketNames[b]
}

// ParseBucket maps a bucket's name back to its index (the TSV reader).
func ParseBucket(s string) (Bucket, error) {
	for i, n := range bucketNames {
		if n == s {
			return Bucket(i), nil
		}
	}
	return 0, fmt.Errorf("profile: unknown bucket %q", s)
}

// Class is a phase's blame classification.
type Class int

const (
	ClassWork      Class = iota // ordinary operator phase
	ClassDetect                 // failure-detector pseudo-phase
	ClassRedo                   // re-run after a mirrored failover
	ClassResurrect              // dynamic Hybrid resurrect pass
)

var classNames = [...]string{"work", "detect", "redo", "resurrect"}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// ParseClass maps a class name back to its value (the TSV reader).
func ParseClass(s string) (Class, error) {
	for i, n := range classNames {
		if n == s {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("profile: unknown phase class %q", s)
}

// SiteWork is one site's merged resource account within one phase —
// reconstructed from the site's spans, identical to the PhaseStat.PerSite
// entry the response-time arithmetic used.
type SiteWork struct {
	Site           int
	CPU, Disk, Net cost.SimNs
}

// Elapsed is the site's overlapped time: max of the three resources,
// matching cost.Acct.Elapsed.
func (s SiteWork) Elapsed() cost.SimNs {
	e := s.CPU
	if s.Disk > e {
		e = s.Disk
	}
	if s.Net > e {
		e = s.Net
	}
	return e
}

// Busy is the site's summed resource time within the phase.
func (s SiteWork) Busy() cost.SimNs { return s.CPU + s.Disk + s.Net }

// PhaseProfile is one barrier-synchronized phase of the profiled attempt.
type PhaseProfile struct {
	Index int    // per-attempt phase ordinal
	Name  string // e.g. "hybrid partition S + probe bucket 1"
	Class Class

	WorkNs  cost.SimNs // slowest site's overlapped time
	SchedNs cost.SimNs // scheduler span duration

	// CritSite held the barrier: the lowest-numbered site whose elapsed
	// time equals WorkNs (-1 for scheduler-only phases). CritRes is the
	// resource that site maxed out on (CPU wins resource ties, then disk).
	CritSite int
	CritRes  Resource

	// Fault carve-outs taken from the blamed resource (ClassWork only):
	// RetryNs re-buckets the crit site's disk retries when the phase is
	// disk-blamed, RetransNs its retransmits/duplicates when net- or
	// CPU-blamed. Both are capped at WorkNs.
	RetryNs   cost.SimNs
	RetransNs cost.SimNs

	Sites []SiteWork // ascending site id
}

// Elapsed is the phase's contribution to response time.
func (p *PhaseProfile) Elapsed() cost.SimNs { return p.WorkNs + p.SchedNs }

// Profile is the full decomposition of one query's response time.
type Profile struct {
	QueryID  int
	Attempt  int // profiled (successful) attempt ordinal
	Attempts int // attempts on the timeline (restarts abandoned the rest)

	// ResponseNs is the profiled response: always exactly the sum of
	// Blame. For standalone runs it equals core.Report.Response; for
	// workload queries (FromQueryResult) it is sched's ResponseNs, with
	// WaitNs and SpreadNs filling the gap beyond the nominal schedule.
	ResponseNs cost.SimNs
	WaitNs     cost.SimNs // admission wait (workload runs only)
	SpreadNs   cost.SimNs // contention stretch (workload runs only)

	// AbandonedNs is timeline time spent in attempts that a crash threw
	// away — outside the response, reported for completeness.
	AbandonedNs cost.SimNs

	Blame  [NumBuckets]cost.SimNs
	Phases []PhaseProfile
}

// BlameTotal sums the buckets; it equals ResponseNs by construction.
func (p *Profile) BlameTotal() cost.SimNs {
	var t cost.SimNs
	for _, v := range p.Blame {
		t += v
	}
	return t
}

// SiteTotal aggregates one site over every phase of the profiled attempt.
type SiteTotal struct {
	Site           int
	CPU, Disk, Net cost.SimNs
	Barriers       int // phases this site held the barrier of
}

// Busy is the site's summed resource time.
func (s SiteTotal) Busy() cost.SimNs { return s.CPU + s.Disk + s.Net }

// SiteTotals aggregates the profiled attempt per site, ascending site id.
func (p *Profile) SiteTotals() []SiteTotal {
	agg := make(map[int]*SiteTotal)
	for i := range p.Phases {
		ph := &p.Phases[i]
		for _, sw := range ph.Sites {
			st := agg[sw.Site]
			if st == nil {
				st = &SiteTotal{Site: sw.Site}
				agg[sw.Site] = st
			}
			st.CPU += sw.CPU
			st.Disk += sw.Disk
			st.Net += sw.Net
		}
		if st := agg[ph.CritSite]; st != nil {
			st.Barriers++
		}
	}
	sites := make([]int, 0, len(agg))
	for s := range agg {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	out := make([]SiteTotal, 0, len(sites))
	for _, s := range sites {
		out = append(out, *agg[s])
	}
	return out
}

// classify buckets a phase by its name and shape. Detection pseudo-phases
// carry no worker spans (gamma.Query.AddDetection), redo phases are suffixed
// by the failover machinery, and the dynamic Hybrid names its resurrect pass.
func classify(name string, workers bool) Class {
	switch {
	case strings.HasSuffix(name, " (redo)"):
		return ClassRedo
	case name == "dyn resurrect":
		return ClassResurrect
	case !workers && strings.HasPrefix(name, "detect "):
		return ClassDetect
	default:
		return ClassWork
	}
}

// siteAgg accumulates one site's spans within one phase.
type siteAgg struct {
	cpu, disk, net cost.SimNs
	retries        int64 // disk.retry events
	retrans        int64 // retransmitted packets (net.retransmit details)
	dups           int64 // duplicated packets (net.duplicate details)
}

// phaseAgg accumulates one phase ordinal's spans.
type phaseAgg struct {
	name  string
	sched cost.SimNs
	sites map[int]*siteAgg
}

// FromRecorder profiles an in-process trace recorder.
func FromRecorder(rec *trace.Recorder, m *cost.Model) (*Profile, error) {
	if rec == nil {
		return nil, fmt.Errorf("profile: no trace recorder")
	}
	return FromSpans(rec.QueryID(), rec.Spans(), m)
}

// FromReport profiles a finished run and enforces the accounting identity
// against its reported response: a mismatch means the trace no longer
// mirrors the response-time arithmetic and is returned as an error rather
// than a silently wrong report.
func FromReport(rep *core.Report, m *cost.Model) (*Profile, error) {
	p, err := FromRecorder(rep.Trace, m)
	if err != nil {
		return nil, err
	}
	if want := cost.DurNs(rep.Response); p.ResponseNs != want {
		return nil, fmt.Errorf(
			"profile: blame buckets sum to %d ns but the report's response is %d ns — accounting identity broken",
			p.ResponseNs.Nanoseconds(), want.Nanoseconds())
	}
	return p, nil
}

// FromSpans profiles a span list (in-process or parsed back from a spans
// TSV). The model prices the fault carve-outs — offline consumers pass
// cost.Default(), and because carve-outs are capped at the blamed work a
// wrong model can only shift time between buckets, never break the identity.
func FromSpans(queryID int, spans []*trace.Span, m *cost.Model) (*Profile, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("profile: no spans to profile")
	}
	last := 0
	for _, s := range spans {
		if s.Attempt > last {
			last = s.Attempt
		}
	}
	p := &Profile{QueryID: queryID, Attempt: last, Attempts: last + 1}

	// Aggregate the profiled attempt per (phase, site); earlier attempts
	// contribute only their timeline total (AbandonedNs).
	phases := make(map[int]*phaseAgg)
	abandoned := make(map[int]*phaseAgg)
	for _, s := range spans {
		byPhase := phases
		if s.Attempt != last {
			byPhase = abandoned
			// Abandoned attempts re-use phase ordinals across attempts;
			// key them uniquely so their elapsed times sum correctly.
			s = &trace.Span{Attempt: s.Attempt, Phase: s.Attempt<<20 | s.Phase,
				PhaseName: s.PhaseName, Site: s.Site, Op: s.Op, Role: s.Role,
				Dur: s.Dur, CPU: s.CPU, Disk: s.Disk, Net: s.Net, Events: s.Events}
		}
		pa := byPhase[s.Phase]
		if pa == nil {
			pa = &phaseAgg{name: s.PhaseName, sites: make(map[int]*siteAgg)}
			byPhase[s.Phase] = pa
		}
		if s.Site < 0 {
			// The scheduler span closes the phase; trust its name (worker
			// spans agree, but the sched span always exists).
			pa.name = s.PhaseName
			pa.sched += s.Dur
			continue
		}
		sa := pa.sites[s.Site]
		if sa == nil {
			sa = &siteAgg{}
			pa.sites[s.Site] = sa
		}
		sa.cpu += s.CPU
		sa.disk += s.Disk
		sa.net += s.Net
		for _, ev := range s.Events {
			switch ev.Kind {
			case "disk.retry":
				sa.retries++
			case "net.retransmit":
				sa.retrans += ev.Detail
			case "net.duplicate":
				sa.dups += ev.Detail
			}
		}
	}
	for _, pa := range abandoned {
		p.AbandonedNs += phaseWork(pa) + pa.sched
	}

	ords := make([]int, 0, len(phases))
	for ord := range phases {
		ords = append(ords, ord)
	}
	sort.Ints(ords)
	for _, ord := range ords {
		pa := phases[ord]
		pp := buildPhase(ord, pa, m)
		p.Phases = append(p.Phases, pp)
		switch pp.Class {
		case ClassDetect:
			p.Blame[BucketDetect] += pp.Elapsed()
		case ClassRedo:
			p.Blame[BucketRedo] += pp.Elapsed()
		case ClassResurrect:
			p.Blame[BucketResurrect] += pp.Elapsed()
		default:
			p.Blame[BucketSched] += pp.SchedNs
			switch pp.CritRes {
			case ResCPU:
				p.Blame[BucketRetrans] += pp.RetransNs
				p.Blame[BucketCPU] += pp.WorkNs - pp.RetransNs
			case ResDisk:
				p.Blame[BucketRetry] += pp.RetryNs
				p.Blame[BucketDisk] += pp.WorkNs - pp.RetryNs
			case ResNet:
				p.Blame[BucketRetrans] += pp.RetransNs
				p.Blame[BucketNet] += pp.WorkNs - pp.RetransNs
			default:
				// No worker spans: WorkNs is zero, nothing to blame.
				p.Blame[BucketSched] += pp.WorkNs
			}
		}
	}
	p.ResponseNs = p.BlameTotal()
	return p, nil
}

// phaseWork is the slowest site's elapsed time within one aggregated phase.
func phaseWork(pa *phaseAgg) cost.SimNs {
	var work cost.SimNs
	for _, sa := range pa.sites {
		e := SiteWork{CPU: sa.cpu, Disk: sa.disk, Net: sa.net}.Elapsed()
		if e > work {
			work = e
		}
	}
	return work
}

// buildPhase finalizes one phase: per-site rows in site order, the barrier
// holder and its bound resource, and the fault carve-outs.
func buildPhase(ord int, pa *phaseAgg, m *cost.Model) PhaseProfile {
	pp := PhaseProfile{
		Index:    ord,
		Name:     pa.name,
		SchedNs:  pa.sched,
		CritSite: -1,
		CritRes:  ResNone,
	}
	sites := make([]int, 0, len(pa.sites))
	for s := range pa.sites {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	var crit *siteAgg
	for _, s := range sites {
		sa := pa.sites[s]
		sw := SiteWork{Site: s, CPU: sa.cpu, Disk: sa.disk, Net: sa.net}
		pp.Sites = append(pp.Sites, sw)
		// Strictly-greater keeps the lowest site id on elapsed ties.
		if e := sw.Elapsed(); e > pp.WorkNs {
			pp.WorkNs = e
			pp.CritSite = s
			crit = sa
		}
	}
	pp.Class = classify(pa.name, len(pp.Sites) > 0)
	if crit == nil {
		// Zero-work phases (detection, or all-idle sites): even with
		// worker spans present nothing can be blamed.
		if len(pp.Sites) > 0 {
			pp.CritSite = pp.Sites[0].Site
		}
		return pp
	}
	// Resource ties resolve CPU > disk > net, matching Elapsed's order.
	switch {
	case crit.cpu >= crit.disk && crit.cpu >= crit.net:
		pp.CritRes = ResCPU
	case crit.disk >= crit.net:
		pp.CritRes = ResDisk
	default:
		pp.CritRes = ResNet
	}
	if pp.Class != ClassWork {
		return pp
	}
	// Carve the crit site's fault overhead out of the blamed resource. Each
	// retried read re-paid RandPage on the disk track; each retransmitted
	// packet re-paid PacketWire on the wire and PacketProto on the sender's
	// CPU; duplicates cost wire time only. Caps keep the identity exact
	// even under a mismatched offline model.
	switch pp.CritRes {
	case ResDisk:
		pp.RetryNs = capNs(cost.ScaleNs(crit.retries, m.RandPage), pp.WorkNs)
	case ResNet:
		pp.RetransNs = capNs(cost.ScaleNs(crit.retrans+crit.dups, m.PacketWire), pp.WorkNs)
	case ResCPU:
		pp.RetransNs = capNs(cost.ScaleNs(crit.retrans, m.PacketProto), pp.WorkNs)
	}
	return pp
}

func capNs(v, limit cost.SimNs) cost.SimNs {
	if v > limit {
		return limit
	}
	if v < 0 {
		return 0
	}
	return v
}
