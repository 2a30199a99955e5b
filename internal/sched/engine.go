package sched

import (
	"errors"
	"fmt"
	"sort"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/trace"
	"gammajoin/internal/tuple"
)

// Exec runs one admitted query with its memory grant and returns its report.
// The executor owns everything sched does not care about: relations,
// predicate shapes, the cluster. It must be deterministic in (q, grantBytes)
// — the engine calls it exactly once per query, at admission, synchronously
// on the event-loop goroutine.
type Exec func(q *Query, grantBytes int64) (*core.Report, error)

// Config wires an Engine.
type Config struct {
	Pool   *gamma.MemPool // cluster-wide join-memory pool
	Policy Policy
	MPL    int // multiprogramming level: max concurrent queries; <=0 = unlimited

	// Model prices the Shrink policy's extra bucket-forming pass and the
	// ShrinkRevoke policy's spill penalty. Required for those two, unused
	// otherwise.
	Model *cost.Model

	Exec Exec

	// Overload control (see overload.go). All three knobs default to the
	// pre-overload engine: NoShed, unbounded queue, seed 0 — zero values
	// reproduce old runs byte for byte.
	//
	// QueueCap bounds the admission queue; arrivals that would overflow it
	// are shed on the spot. 0 means unbounded. Requires a shed policy.
	QueueCap int
	// Shed selects the load-shedding policy.
	Shed ShedPolicy
	// ShedSeed salts the deterministic tie-break hash in shed-victim
	// selection.
	ShedSeed uint64
}

// Engine admits and interleaves a workload. One engine runs one workload;
// it is not reusable.
type Engine struct {
	cfg Config

	now     cost.SimNs
	running []*runq // admission order
	peakMPL int
	// sitePeak tracks the lease high-water mark per site: how many
	// resident queries held unfinished work there at once.
	sitePeak map[int]int

	// Overload state (see overload.go). sheds records every query resolved
	// without completing; the metrics registry carries the shed/timeout
	// counters and the queue-depth gauge, sampled per overload event.
	sheds          map[int]*shedRec
	metrics        *trace.Metrics
	mShed          *trace.Counter
	mTimeout       *trace.Counter
	mBrownout      *trace.Counter
	mQueueDepth    *trace.Gauge
	events         int
	queueDepthPeak int
}

// runStage is a running query's position within its current phase.
type runStage int

const (
	stageSched runStage = iota // paying the phase's scheduling latency
	stageWork                  // per-site work, processor-shared
)

// phaseSched is one phase of a query's schedule, extracted from its report:
// the unshared scheduling latency plus per-site remaining work. Sites are
// kept as a sorted slice so the event loop never iterates a map.
type phaseSched struct {
	name  string
	sched cost.SimNs
	sites []int
	rem   map[int]cost.SimNs
}

// runq is one admitted query on the simulated timeline.
type runq struct {
	q       *Query
	rep     *core.Report
	grant   int64
	admitNs cost.SimNs

	phases   []*phaseSched
	pi       int
	st       runStage
	schedRem cost.SimNs
	done     bool
	finishNs cost.SimNs

	// Revocation state (ShrinkRevoke only; zero-valued otherwise).
	// revoked is how much of the grant the engine has clawed back;
	// penalty is the spill-repass phase appended to the schedule's end,
	// cancelled (zeroed) if the memory comes back before pi reaches
	// penaltyIdx.
	revoked    int64
	penalty    *phaseSched
	penaltyIdx int

	// Overload state: outcome is OutcomeCompleted unless the engine
	// canceled the query at its deadline; browned marks a Brownout
	// degraded-grant admission.
	outcome Outcome
	browned bool
}

// newRunq builds the interleavable schedule from the query's report.
func newRunq(q *Query, rep *core.Report, grant int64, admitNs cost.SimNs) *runq {
	r := &runq{q: q, rep: rep, grant: grant, admitNs: admitNs, penaltyIdx: -1}
	for _, ps := range rep.Phases {
		ph := &phaseSched{
			name:  ps.Name,
			sched: cost.DurNs(ps.Sched),
			rem:   make(map[int]cost.SimNs, len(ps.PerSite)),
		}
		var sites []int
		for site, a := range ps.PerSite {
			if e := a.Elapsed(); e > 0 {
				sites = append(sites, site)
				ph.rem[site] = e
			}
		}
		sort.Ints(sites)
		ph.sites = sites
		r.phases = append(r.phases, ph)
	}
	r.pi = -1
	r.nextPhase()
	return r
}

// nextPhase advances to the next phase with anything left to do, entering
// its sched stage (or straight to work, or completion).
func (r *runq) nextPhase() {
	for {
		r.pi++
		if r.pi >= len(r.phases) {
			r.done = true
			return
		}
		ph := r.phases[r.pi]
		if ph.sched > 0 {
			r.st = stageSched
			r.schedRem = ph.sched
			return
		}
		if len(ph.sites) > 0 {
			r.st = stageWork
			return
		}
		// Empty phase (nothing charged): skip.
	}
}

// workDone reports whether the current phase's per-site work is exhausted.
func (r *runq) workDone() bool {
	ph := r.phases[r.pi]
	for _, site := range ph.sites {
		if ph.rem[site] > 0 {
			return false
		}
	}
	return true
}

// remainingNominal is the query's remaining schedule at load 1 — the time it
// would still take running alone. The Shrink policy projects grant-release
// times from it.
func (r *runq) remainingNominal() cost.SimNs {
	if r.done {
		return 0
	}
	var t cost.SimNs
	if r.st == stageSched {
		t += r.schedRem
	}
	for i := r.pi; i < len(r.phases); i++ {
		ph := r.phases[i]
		if i > r.pi {
			t += ph.sched
		}
		var maxRem cost.SimNs
		for _, site := range ph.sites {
			if ph.rem[site] > maxRem {
				maxRem = ph.rem[site]
			}
		}
		t += maxRem
	}
	return t
}

// New creates an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("sched: config needs a memory pool")
	}
	if cfg.Exec == nil {
		return nil, fmt.Errorf("sched: config needs an executor")
	}
	if (cfg.Policy == Shrink || cfg.Policy == ShrinkRevoke) && cfg.Model == nil {
		return nil, fmt.Errorf("sched: %s policy needs a cost model", cfg.Policy)
	}
	if cfg.QueueCap > 0 && cfg.Shed == NoShed {
		return nil, fmt.Errorf("sched: a bounded admission queue (cap %d) needs a shed policy", cfg.QueueCap)
	}
	e := &Engine{
		cfg:      cfg,
		sitePeak: make(map[int]int),
		sheds:    make(map[int]*shedRec),
		metrics:  trace.NewMetrics(),
	}
	e.mShed = e.metrics.Counter("sched.shed")
	e.mTimeout = e.metrics.Counter("sched.timeout")
	e.mBrownout = e.metrics.Counter("sched.brownout")
	e.mQueueDepth = e.metrics.Gauge("sched.queue.depth")
	return e, nil
}

// minGrant is the smallest admissible memory grant: one tuple slot, the same
// floor core applies per site.
const minGrant = int64(tuple.Bytes)

// clampDemand bounds a query's demand to what the pool can ever satisfy:
// at least one tuple slot, at most the whole pool (pool wins if the two
// conflict — an over-small pool must not make every query inadmissible).
func (e *Engine) clampDemand(d int64) int64 {
	if d < minGrant {
		d = minGrant
	}
	if t := e.cfg.Pool.Total(); d > t {
		d = t
	}
	return d
}

// decide applies the admission policy to the queue head: the grant to hand
// it, or ok=false to leave it waiting for a completion.
func (e *Engine) decide(q *Query) (int64, bool) {
	free := e.cfg.Pool.Free()
	demand := e.clampDemand(q.DemandBytes)
	switch e.cfg.Policy {
	case FIFO:
		return demand, free >= demand
	case Fair:
		// Equal slices: with a bounded MPL every query is entitled to
		// pool/MPL, so admissions never wait on memory until the MPL cap
		// itself binds; with unlimited MPL the share adapts to the
		// current population.
		den := int64(len(e.running) + 1)
		if e.cfg.MPL > 0 {
			den = int64(e.cfg.MPL)
		}
		share := e.cfg.Pool.Total() / den
		g := demand
		if share < g {
			g = share
		}
		floor := demand / 8
		if floor < minGrant {
			floor = minGrant
		}
		if g < floor || free < g {
			return 0, false
		}
		return g, true
	case Shrink, ShrinkRevoke:
		for k := int64(1); k <= 8; k++ {
			g := (demand + k - 1) / k
			if g < minGrant {
				g = minGrant
			}
			if g > free {
				continue
			}
			if k == 1 {
				return g, true
			}
			// A grant of demand/k runs Hybrid with k buckets instead of
			// one: (k-1)/k of both relations detours through disk buckets
			// (Section 3.4). Pay that only if the full grant is further
			// away than the pass costs.
			spill := cost.Bytes((q.DemandBytes + q.OuterBytes) * (k - 1) / k)
			extra := e.cfg.Model.RepartitionPassNs(spill, tuple.Bytes)
			if extra <= e.projectedWait(demand) {
				return g, true
			}
			return 0, false
		}
		return 0, false
	default:
		return 0, false
	}
}

// projectedWait estimates how long until `demand` bytes are free, assuming
// each running query releases its grant after its remaining nominal
// schedule. It walks releases in nominal-completion order.
func (e *Engine) projectedWait(demand int64) cost.SimNs {
	type rel struct {
		at    cost.SimNs
		grant int64
	}
	rels := make([]rel, 0, len(e.running))
	for _, r := range e.running {
		rels = append(rels, rel{at: r.remainingNominal(), grant: r.grant})
	}
	sort.SliceStable(rels, func(i, j int) bool { return rels[i].at < rels[j].at })
	free := e.cfg.Pool.Free()
	for _, rl := range rels {
		free += rl.grant
		if free >= demand {
			return rl.at
		}
	}
	// Unreachable when demand is clamped to the pool; treat as "forever".
	return cost.SimNs(int64(^uint64(0) >> 1))
}

// grantFloor is the smallest grant a query is ever held to: 1/8 of its
// clamped demand, the lowest memory ratio the paper plots (Figures 5-9),
// never below one tuple slot.
func (e *Engine) grantFloor(q *Query) int64 {
	f := e.clampDemand(q.DemandBytes) / 8
	if f < minGrant {
		f = minGrant
	}
	return f
}

// tryRevoke fires only under ShrinkRevoke, when the queue head is
// memory-blocked at its own floor: even a demand/8 grant does not fit the
// free pool. It claws back surplus — grant above the same floor — from
// running queries, largest surplus first (admission order breaking ties),
// until the head's floor grant fits, and returns that grant. Each victim is
// charged one repartition pass over its spilled fraction, appended as a
// final schedule phase; the retirement loop re-grants and cancels the
// penalty if memory frees up before the victim reaches it. If the running
// set's total surplus cannot cover the head, nothing is touched.
func (e *Engine) tryRevoke(q *Query) (int64, bool) {
	g := e.grantFloor(q)
	free := e.cfg.Pool.Free()
	if free >= g {
		// Not memory-blocked: decide refused on price, so waiting is
		// projected cheaper than spilling. Revoking would not help.
		return 0, false
	}
	need := g - free
	type victim struct {
		r     *runq
		slack int64
	}
	var vs []victim
	var total int64
	for _, r := range e.running {
		if r.penaltyIdx >= 0 && r.pi >= r.penaltyIdx {
			// Already paying its spill pass; its table is gone.
			continue
		}
		if s := r.grant - e.grantFloor(r.q); s > 0 {
			vs = append(vs, victim{r, s})
			total += s
		}
	}
	if total < need {
		return 0, false
	}
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].slack > vs[j].slack })
	for _, v := range vs {
		amt := v.slack
		if amt > need {
			amt = need
		}
		if err := e.revoke(v.r, amt); err != nil {
			return 0, false
		}
		need -= amt
		if need == 0 {
			break
		}
	}
	return g, true
}

// revoke shrinks one running query's grant by amt and prices the loss: the
// revoked build memory plus the proportional share of the outer relation
// detours through a disk partition, one repartition pass over those bytes
// (the dynamic Hybrid whole-partition spill). The pass is appended to the
// end of the victim's schedule so the engine can cancel it on a re-grant.
func (e *Engine) revoke(r *runq, amt int64) error {
	if err := e.cfg.Pool.Revoke(amt); err != nil {
		return err
	}
	r.grant -= amt
	r.revoked += amt
	spill := amt
	if d := r.q.DemandBytes; d > 0 {
		spill += amt * r.q.OuterBytes / d
	}
	pen := e.cfg.Model.RepartitionPassNs(cost.Bytes(spill), tuple.Bytes)
	if r.penalty == nil {
		r.penalty = &phaseSched{name: "revoke spill pass", sched: pen}
		r.penaltyIdx = len(r.phases)
		r.phases = append(r.phases, r.penalty)
	} else {
		r.penalty.sched += pen
	}
	return nil
}

// regrantRevoked walks the running set in admission order and returns
// revoked memory to any victim whose full clawback now fits the free pool
// and who has not yet started its spill pass — cancelling the penalty
// phase, the scheduler-level mirror of partition resurrection. No-op
// outside ShrinkRevoke (no query ever has revoked > 0).
func (e *Engine) regrantRevoked() error {
	for _, r := range e.running {
		if r.revoked == 0 || r.pi >= r.penaltyIdx {
			continue
		}
		if e.cfg.Pool.Free() < r.revoked {
			continue
		}
		if err := e.cfg.Pool.Regrant(r.revoked); err != nil {
			return err
		}
		r.grant += r.revoked
		r.revoked = 0
		r.penalty.sched = 0 // nextPhase skips emptied phases
		r.penalty = nil
		r.penaltyIdx = -1
	}
	return nil
}

// Run executes the workload to completion and returns its result. queries
// must be in arrival order. The loop is a single-goroutine event simulation:
// between events every site serves its resident queries processor-sharing
// style, so a phase's work stretches by the site's load while its
// scheduling latency (the Gamma scheduler talking to operator processes)
// does not contend.
func (e *Engine) Run(queries []*Query) (*Result, error) {
	for i := 1; i < len(queries); i++ {
		if queries[i].ArriveNs < queries[i-1].ArriveNs {
			return nil, fmt.Errorf("sched: queries out of arrival order at %d", i)
		}
	}
	var (
		next     int // next unarrived query
		waitq    []*Query
		admitted = make(map[int]*runq, len(queries))
		loads    = make(map[int]int)
		resolved int // completed + shed + timed out + canceled
	)
	shedding := e.cfg.Shed != NoShed
	for resolved < len(queries) {
		// Arrivals at or before now join the admission queue in order.
		for next < len(queries) && queries[next].ArriveNs <= e.now {
			waitq = append(waitq, queries[next])
			next++
		}
		if len(waitq) > e.queueDepthPeak {
			e.queueDepthPeak = len(waitq)
		}
		if shedding {
			// Deadline enforcement, at exact deadline instants (the dt
			// candidates below step the clock onto them). Running queries
			// past their deadline are canceled — grant released, schedule
			// abandoned; completions retire before this check (end of the
			// previous iteration), so a query finishing exactly at its
			// deadline completes.
			alive := e.running[:0]
			for _, r := range e.running {
				dl, ok := r.q.deadline()
				if !ok || e.now < dl {
					alive = append(alive, r)
					continue
				}
				r.outcome = OutcomeCanceled
				r.finishNs = e.now
				resolved++
				if err := e.cfg.Pool.Release(r.grant); err != nil {
					return nil, err
				}
				e.shedQuery(r.q, OutcomeCanceled, len(waitq))
			}
			e.running = alive
			// Waiting queries past their deadline time out of the queue.
			keep := waitq[:0]
			for _, q := range waitq {
				if dl, ok := q.deadline(); ok && e.now >= dl {
					resolved++
					e.shedQuery(q, OutcomeTimedOutQueued, len(waitq)-1)
					continue
				}
				keep = append(keep, q)
			}
			waitq = keep
			// Bounded admission queue: shed down to the cap. RejectNewest
			// and Brownout drop the newest arrival; ShedLargest evicts the
			// largest-demand waiter (seeded tie-break).
			if cap := e.cfg.QueueCap; cap > 0 {
				for len(waitq) > cap {
					idx := len(waitq) - 1
					if e.cfg.Shed == ShedLargest {
						idx = e.largestVictim(waitq)
					}
					v := waitq[idx]
					waitq = append(waitq[:idx], waitq[idx+1:]...)
					resolved++
					e.shedQuery(v, OutcomeShedQueue, len(waitq))
				}
			}
		}
		// Victims first: revoked memory flows back to earlier admissions
		// before any new query is considered, cancelling their spill
		// penalties while they can still use the table space.
		if e.cfg.Policy == ShrinkRevoke {
			if err := e.regrantRevoked(); err != nil {
				return nil, err
			}
		}
		// Admit the queue head while the policy allows. Admission is FIFO
		// for every policy: a query never overtakes an earlier arrival, so
		// grants differ between policies but order never does.
		for len(waitq) > 0 {
			if e.cfg.MPL > 0 && len(e.running) >= e.cfg.MPL {
				break
			}
			q := waitq[0]
			grant, ok := e.decide(q)
			if !ok && e.cfg.Policy == ShrinkRevoke {
				grant, ok = e.tryRevoke(q)
			}
			browned := false
			if !ok && e.cfg.Shed == Brownout && brownoutEligible(q) {
				// Brownout: admit the Hybrid head degraded rather than
				// leave it to queue toward its deadline.
				if g, deg, fits := e.brownoutGrant(q); fits {
					grant, ok, browned = g, true, deg
				}
			}
			if !ok && e.cfg.Shed == ShedLargest && e.headStarved(q) {
				// The head cannot get even its floor grant before its
				// deadline: shed the largest-demand waiter. A shed head
				// unblocks the queue — retry admission; otherwise stop and
				// let the event loop advance.
				idx := e.largestVictim(waitq)
				v := waitq[idx]
				waitq = append(waitq[:idx], waitq[idx+1:]...)
				resolved++
				e.shedQuery(v, OutcomeShedStarved, len(waitq))
				if idx == 0 {
					continue
				}
				break
			}
			if !ok {
				break
			}
			if err := e.cfg.Pool.Take(grant); err != nil {
				return nil, fmt.Errorf("sched: admitting query %d: %w", q.ID, err)
			}
			rep, err := e.cfg.Exec(q, grant)
			if err != nil {
				if errors.Is(err, fault.ErrRetryBudgetExhausted) {
					// The executor gave up inside its retry budget: shed
					// this query instead of failing the workload. Applies
					// under every policy — the budget bounds fault-retry
					// work, not load.
					if rerr := e.cfg.Pool.Release(grant); rerr != nil {
						return nil, rerr
					}
					waitq = waitq[1:]
					resolved++
					e.shedQuery(q, OutcomeShedBudget, len(waitq))
					continue
				}
				return nil, fmt.Errorf("sched: executing query %d: %w", q.ID, err)
			}
			if shedding {
				// Admission-time feasibility: the nominal response is a
				// hard lower bound on what the shared machine will deliver,
				// so a head that cannot make its deadline even running
				// alone is shed here, cheaply, instead of holding a grant
				// until the deadline cancel.
				if dl, ok := q.deadline(); ok && e.now+cost.DurNs(rep.Response) > dl {
					if rerr := e.cfg.Pool.Release(grant); rerr != nil {
						return nil, rerr
					}
					waitq = waitq[1:]
					resolved++
					e.shedQuery(q, OutcomeShedInfeasible, len(waitq))
					continue
				}
			}
			rq := newRunq(q, rep, grant, e.now)
			rq.browned = browned
			admitted[q.ID] = rq
			waitq = waitq[1:]
			if browned {
				e.mBrownout.Add(1)
				e.sampleMetrics("brownout", len(waitq))
			}
			if rq.done { // degenerate empty schedule
				rq.finishNs = e.now
				resolved++
				if err := e.cfg.Pool.Release(grant); err != nil {
					return nil, err
				}
				continue
			}
			e.running = append(e.running, rq)
			if len(e.running) > e.peakMPL {
				e.peakMPL = len(e.running)
			}
		}
		if len(e.running) == 0 {
			if len(waitq) > 0 {
				// Nothing running, nothing releasing, head inadmissible:
				// a future arrival cannot shrink the head's demand, but
				// under a shed policy a waiter's deadline can still fire —
				// step to the earliest of the two. With neither, that is a
				// policy bug.
				jump := cost.SimNs(-1)
				if next < len(queries) {
					jump = queries[next].ArriveNs
				}
				if shedding {
					for _, q := range waitq {
						if dl, ok := q.deadline(); ok && dl > e.now && (jump < 0 || dl < jump) {
							jump = dl
						}
					}
				}
				if jump > e.now {
					e.now = jump
					continue
				}
				return nil, fmt.Errorf("sched: deadlock: query %d inadmissible with idle pool (%d free of %d)",
					waitq[0].ID, e.cfg.Pool.Free(), e.cfg.Pool.Total())
			}
			if next < len(queries) {
				e.now = queries[next].ArriveNs
				continue
			}
			break
		}

		// Site loads: how many resident queries hold an unfinished lease on
		// each site. Iterating running (admission order) and each phase's
		// sorted site slice keeps this loop map-iteration-free.
		for k := range loads {
			delete(loads, k)
		}
		for _, r := range e.running {
			if r.st != stageWork {
				continue
			}
			ph := r.phases[r.pi]
			for _, site := range ph.sites {
				if ph.rem[site] > 0 {
					loads[site]++
				}
			}
		}
		for _, r := range e.running {
			if r.st != stageWork {
				continue
			}
			ph := r.phases[r.pi]
			for _, site := range ph.sites {
				if ph.rem[site] > 0 && loads[site] > e.sitePeak[site] {
					e.sitePeak[site] = loads[site]
				}
			}
		}

		// Next event: the earliest of (a) a sched stage finishing, (b) some
		// site draining some query's remaining work at its current load,
		// (c) the next arrival. Candidate (b) is rem*load: at rate 1/load
		// that takes the remainder exactly to zero, so integer floor
		// division still guarantees progress every iteration.
		const inf = cost.SimNs(int64(^uint64(0) >> 1))
		dt := inf
		if next < len(queries) {
			if gap := queries[next].ArriveNs - e.now; gap < dt {
				dt = gap
			}
		}
		if shedding {
			// Deadlines are events too: step exactly onto the earliest
			// future deadline of any running or waiting query so
			// cancellations and queue timeouts fire at exact instants.
			for _, r := range e.running {
				if dl, ok := r.q.deadline(); ok && dl > e.now {
					if gap := dl - e.now; gap < dt {
						dt = gap
					}
				}
			}
			for _, q := range waitq {
				if dl, ok := q.deadline(); ok && dl > e.now {
					if gap := dl - e.now; gap < dt {
						dt = gap
					}
				}
			}
		}
		for _, r := range e.running {
			if r.st == stageSched {
				if r.schedRem < dt {
					dt = r.schedRem
				}
				continue
			}
			ph := r.phases[r.pi]
			for _, site := range ph.sites {
				rem := ph.rem[site]
				if rem <= 0 {
					continue
				}
				if c := cost.ScaleNs(loads[site], rem); c < dt {
					dt = c
				}
			}
		}
		if dt == inf || dt <= 0 {
			return nil, fmt.Errorf("sched: stalled at t=%dns with %d running", e.now, len(e.running))
		}

		// Advance the clock and every running query by dt.
		e.now += dt
		for _, r := range e.running {
			if r.st == stageSched {
				r.schedRem -= dt
				if r.schedRem <= 0 {
					r.schedRem = 0
					if len(r.phases[r.pi].sites) > 0 {
						r.st = stageWork
					} else {
						r.nextPhase()
					}
				}
				continue
			}
			ph := r.phases[r.pi]
			for _, site := range ph.sites {
				rem := ph.rem[site]
				if rem <= 0 {
					continue
				}
				dec := dt.Div(int64(loads[site]))
				if dec >= rem {
					ph.rem[site] = 0
				} else {
					ph.rem[site] = rem - dec
				}
			}
			if r.workDone() {
				r.nextPhase()
			}
		}

		// Retire completions in admission order and release their grants —
		// the admission loop at the top of the next iteration sees the
		// freed memory immediately.
		alive := e.running[:0]
		for _, r := range e.running {
			if !r.done {
				alive = append(alive, r)
				continue
			}
			r.finishNs = e.now
			resolved++
			if err := e.cfg.Pool.Release(r.grant); err != nil {
				return nil, err
			}
		}
		e.running = alive
	}
	return e.buildResult(queries, admitted), nil
}
