// Package fault is the simulator's deterministic fault-injection layer.
//
// Every physical component (internal/disk, internal/netsim) and the join
// runner (internal/core) consults a single Registry to decide whether a
// given operation suffers a fault: a transient page-read error, a dropped
// or duplicated packet, a mid-join change in the memory budget, or a site
// crash. No component flips a coin on its own — all decisions derive from
// pure hashes of a Spec's Seed and the identity of the operation (site,
// file, op ordinal, packet sequence number, phase ordinal), so two runs of
// the same query under the same Spec observe byte-identical fault
// schedules. That is what lets the repo's determinism gate — byte-identical
// cost reports across runs — extend to faulted configurations.
//
// The one piece of mutable state is a per-(site,file) operation counter:
// the i-th read of a given file at a given site rolls the same dice in
// every run because, within one phase, each file is read by exactly one
// goroutine and phases are separated by barriers (see docs/FAULTS.md for
// the argument). The counter lives behind a mutex so the registry itself
// is safe for concurrent use from many site goroutines.
package fault

import (
	"errors"
	"sync"
	"sync/atomic"

	"gammajoin/internal/xrand"
)

// ErrRetryBudgetExhausted is the sentinel a query fails with when its
// priced retry budget runs out; the workload engine (internal/sched)
// recognizes it and sheds the query instead of failing the workload.
var ErrRetryBudgetExhausted = errors.New("fault: retry budget exhausted")

// Fault-kind salts keep the hash streams for different decision types
// disjoint even when their identifying coordinates collide.
const (
	kindDiskRead = 0xD15C_0000_0000_0001
	kindNetDrop  = 0x4E7D_0000_0000_0002
	kindNetDup   = 0x4E7D_0000_0000_0003
	kindMem      = 0x4D45_0000_0000_0004
	kindMemDir   = 0x4D45_0000_0000_0005
	kindCrash    = 0xC4A5_0000_0000_0006
	kindDetect   = 0xDE7E_0000_0000_0007
	kindSwing    = 0x5319_0000_0000_0008
	kindSwingDir = 0x5319_0000_0000_0009
	kindBurst    = 0xB0A5_0000_0000_000A
)

// CrashPoint pins a single injected site crash to an exact phase ordinal
// and site, for tests and experiments that need a scripted failure rather
// than a random one.
type CrashPoint struct {
	Phase int // phase ordinal within the query (0-based)
	Site  int // site id that dies at the start of that phase
}

// Spec describes a fault schedule. The zero value injects nothing. All
// rates are probabilities in [0, 1]; the Seed keys every decision, so two
// Specs that differ only in Seed produce unrelated schedules.
type Spec struct {
	Seed uint64

	// DiskReadRate is the per-page probability that a page read fails
	// transiently and must be retried (each retry re-reads the page and
	// is charged as a random access). DiskMaxRetries bounds consecutive
	// failures per page; 0 means the default of 3.
	DiskReadRate   float64
	DiskMaxRetries int

	// NetDropRate is the per-packet probability that a remote packet is
	// lost and retransmitted (each retransmission re-charges the wire and
	// the sender's protocol CPU). NetDupRate is the per-packet probability
	// that the network delivers one extra copy, which the receiver must
	// detect and discard.
	NetDropRate float64
	NetDupRate  float64

	// MemPressureRate is the per-phase probability that the aggregate
	// join-memory budget changes mid-build. When it fires, a second roll
	// picks shrink (MemShrinkFactor, default 0.5) or grow (MemGrowFactor,
	// default 1.5) with equal probability.
	MemPressureRate float64
	MemShrinkFactor float64
	MemGrowFactor   float64

	// BudgetSwingRate is the per-epoch probability that the join-memory
	// budget swings mid-build — the stress input for dynamic Hybrid's
	// revoke/re-grant path. Unlike MemPressureRate's one-shot per-phase
	// roll, swings are rolled once per batch epoch within a phase, so a
	// single build can shrink, recover, and shrink again. When a swing
	// fires, a second roll picks downward (BudgetSwingShrink) or upward
	// (BudgetSwingGrow) with equal probability.
	BudgetSwingRate float64

	// CrashRate is the per-phase, per-site probability that a join site
	// crashes at the start of a phase, aborting the query attempt; the
	// runner restarts without the dead site. MaxCrashes bounds the total
	// crashes per registry (0 means the default of 1). Crash, when
	// non-nil, scripts one exact crash instead of rolling.
	CrashRate  float64
	MaxCrashes int
	Crash      *CrashPoint

	// DetectJitterRate is the per-crash probability that the scheduler's
	// failure detector needs one extra heartbeat period to declare the dead
	// site down (a heartbeat raced the crash and was counted). It perturbs
	// only DetectionDelay, never the join result.
	DetectJitterRate float64

	// RetryBudget caps the priced retry units one query may consume across
	// all its fault recoveries: each disk-read retry costs one unit, each
	// crash restart costs RestartCost units (default 8). 0 means unlimited
	// — the pre-budget behavior. Consumption is tallied as retries happen
	// but exhaustion is only *acted on* at phase barriers (the tally is an
	// order-independent sum, so the abort point is deterministic); the
	// runner then fails the query with ErrRetryBudgetExhausted and the
	// workload engine sheds it instead of letting a hot injector livelock
	// the machine.
	RetryBudget int64
	RestartCost int64

	// RetryBackoffNs prices the waiting a real system would do between
	// retry attempts: the i-th consecutive retry of one operation charges
	// an exponential backoff of RetryBackoffNs << i simulated nanoseconds
	// to the paying span, on top of the re-read itself. 0 charges nothing
	// (the pre-backoff behavior).
	RetryBackoffNs int64

	// ArrivalBurstRate is the per-arrival probability that the workload
	// generator (internal/sched) collapses the next ArrivalBurstLen gaps
	// to zero — a burst of simultaneous arrivals, the stress input for the
	// bounded admission queue. ArrivalBurstLen defaults to 4.
	ArrivalBurstRate float64
	ArrivalBurstLen  int
}

// Registry hands out fault decisions for one Spec. A nil *Registry is
// valid and injects nothing, so components can hold one unconditionally.
type Registry struct {
	spec Spec

	mu      sync.Mutex
	fileOps map[fileKey]uint64
	crashes int

	// budgetUsed tallies priced retry units for the current query; it is
	// an atomic because disk workers consume units mid-phase, and a plain
	// sum is order-independent so the barrier-time exhaustion check stays
	// deterministic.
	budgetUsed atomic.Int64
}

type fileKey struct {
	site int
	file int64
}

// NewRegistry builds a registry for spec, applying defaults.
func NewRegistry(spec Spec) *Registry {
	if spec.DiskMaxRetries <= 0 {
		spec.DiskMaxRetries = 3
	}
	if spec.MemShrinkFactor <= 0 {
		spec.MemShrinkFactor = 0.5
	}
	if spec.MemGrowFactor <= 0 {
		spec.MemGrowFactor = 1.5
	}
	if spec.MaxCrashes <= 0 {
		spec.MaxCrashes = 1
	}
	if spec.RestartCost <= 0 {
		spec.RestartCost = 8
	}
	if spec.ArrivalBurstLen <= 0 {
		spec.ArrivalBurstLen = 4
	}
	return &Registry{spec: spec, fileOps: make(map[fileKey]uint64)}
}

// Spec returns the registry's (defaulted) spec.
func (r *Registry) Spec() Spec {
	if r == nil {
		return Spec{}
	}
	return r.spec
}

// roll hashes the coordinates with the seed and kind salt into a uniform
// value in [0, 1). Pure function: the same coordinates always yield the
// same outcome.
func (r *Registry) roll(kind uint64, a, b, c, d uint64) float64 {
	x := xrand.Mix64(r.spec.Seed ^ kind)
	x = xrand.Mix64(x ^ a)
	x = xrand.Mix64(x ^ b)
	x = xrand.Mix64(x ^ c)
	x = xrand.Mix64(x ^ d)
	return float64(x>>11) / (1 << 53)
}

// ReadRetries reports how many times the next page read of file fileID at
// site must be retried before succeeding. Each call consumes one per-file
// operation ordinal, so consecutive reads of the same file roll fresh dice.
func (r *Registry) ReadRetries(site int, fileID int64) int {
	if r == nil || r.spec.DiskReadRate <= 0 {
		return 0
	}
	r.mu.Lock()
	k := fileKey{site, fileID}
	op := r.fileOps[k]
	r.fileOps[k] = op + 1
	r.mu.Unlock()

	retries := 0
	for retries < r.spec.DiskMaxRetries {
		if r.roll(kindDiskRead, uint64(site), uint64(fileID), op, uint64(retries)) >= r.spec.DiskReadRate {
			break
		}
		retries++
	}
	r.budgetUsed.Add(int64(retries))
	return retries
}

// RetryBackoffNs prices the backoff wait before the i-th (0-based) retry of
// one operation: RetryBackoffNs << i simulated nanoseconds, doubling per
// consecutive failure. Returns 0 when backoff pricing is disabled. The
// caller (internal/disk) charges it as typed cost on the paying span.
func (r *Registry) RetryBackoffNs(retry int) int64 {
	if r == nil || r.spec.RetryBackoffNs <= 0 {
		return 0
	}
	if retry > 32 {
		retry = 32 // clamp the shift; no real chain gets near this
	}
	return r.spec.RetryBackoffNs << retry
}

// BeginQueryBudget scopes the retry budget to a fresh query: core.Run calls
// it under the cluster's run lock, so one registry shared by a whole
// workload still prices each query against its own budget. The budget spans
// restart attempts within the query.
func (r *Registry) BeginQueryBudget() {
	if r == nil {
		return
	}
	r.budgetUsed.Store(0)
}

// ConsumeRestart charges one crash restart (RestartCost units) against the
// current query's budget.
func (r *Registry) ConsumeRestart() {
	if r == nil {
		return
	}
	r.budgetUsed.Add(r.spec.RestartCost)
}

// BudgetExhausted reports whether the current query has overdrawn its retry
// budget. Only meaningful at a phase barrier (mid-phase the tally is still
// accumulating in worker-scheduling order); with RetryBudget 0 it never
// trips.
func (r *Registry) BudgetExhausted() bool {
	if r == nil || r.spec.RetryBudget <= 0 {
		return false
	}
	return r.budgetUsed.Load() >= r.spec.RetryBudget
}

// BudgetUsed reports the retry units the current query has consumed.
func (r *Registry) BudgetUsed() int64 {
	if r == nil {
		return 0
	}
	return r.budgetUsed.Load()
}

// ArrivalBurst reports whether a burst starts at arrival ordinal seq and, if
// so, how many subsequent gaps collapse to zero. Pure function of seq, so
// the workload generator's arrival schedule stays part of the determinism
// contract.
func (r *Registry) ArrivalBurst(seq int) int {
	if r == nil || r.spec.ArrivalBurstRate <= 0 {
		return 0
	}
	if r.roll(kindBurst, uint64(seq), 0, 0, 0) < r.spec.ArrivalBurstRate {
		return r.spec.ArrivalBurstLen
	}
	return 0
}

// maxRetransmits bounds the retransmission chain for one packet; with any
// sane drop rate the chain is almost always 0 or 1 long.
const maxRetransmits = 8

// PacketFate reports how many times the packet identified by (src, dst,
// tag, seq) is retransmitted before delivery, and how many duplicate
// copies the network spuriously delivers. Pure function of the identity.
func (r *Registry) PacketFate(src, dst, tag int, seq int64) (retrans, dups int) {
	if r == nil {
		return 0, 0
	}
	if r.spec.NetDropRate > 0 {
		for retrans < maxRetransmits {
			if r.roll(kindNetDrop, uint64(src), uint64(dst), uint64(uint32(tag)), uint64(seq)<<8|uint64(retrans)) >= r.spec.NetDropRate {
				break
			}
			retrans++
		}
	}
	if r.spec.NetDupRate > 0 {
		if r.roll(kindNetDup, uint64(src), uint64(dst), uint64(uint32(tag)), uint64(seq)) < r.spec.NetDupRate {
			dups = 1
		}
	}
	return retrans, dups
}

// MemFactor reports the multiplier applied to the join-memory budget for
// the given phase ordinal: 1 when no pressure event fires, otherwise the
// spec's shrink or grow factor. Pure function of the phase ordinal.
func (r *Registry) MemFactor(phase int) float64 {
	if r == nil || r.spec.MemPressureRate <= 0 {
		return 1
	}
	if r.roll(kindMem, uint64(phase), 0, 0, 0) >= r.spec.MemPressureRate {
		return 1
	}
	if r.roll(kindMemDir, uint64(phase), 0, 0, 0) < 0.5 {
		return r.spec.MemShrinkFactor
	}
	return r.spec.MemGrowFactor
}

// The budget-swing multipliers: a fired swing shrinks or grows the running
// join-memory budget by one of these.
const (
	BudgetSwingShrink = 0.7
	BudgetSwingGrow   = 1.4
)

// BudgetSwing reports the multiplier applied to the join-memory budget at
// the given batch epoch of the given phase: 1 when no swing fires,
// otherwise BudgetSwingShrink or BudgetSwingGrow. Pure function of
// (phase, epoch), so the same build observes the same budget trajectory in
// every run. Consecutive multipliers compound — the consumer clamps the
// running product.
func (r *Registry) BudgetSwing(phase, epoch int) float64 {
	if r == nil || r.spec.BudgetSwingRate <= 0 {
		return 1
	}
	if r.roll(kindSwing, uint64(phase), uint64(epoch), 0, 0) >= r.spec.BudgetSwingRate {
		return 1
	}
	if r.roll(kindSwingDir, uint64(phase), uint64(epoch), 0, 0) < 0.5 {
		return BudgetSwingShrink
	}
	return BudgetSwingGrow
}

// CrashSiteAt reports whether a site crashes at the start of the given
// phase, and which one. sites must be in ascending order (the runner's
// canonical site ordering) so per-site rolls happen in a deterministic
// sequence. The registry's crash budget (MaxCrashes) is consumed by each
// reported crash.
func (r *Registry) CrashSiteAt(phase int, sites []int) (int, bool) {
	if r == nil {
		return 0, false
	}
	if r.spec.Crash == nil && r.spec.CrashRate <= 0 {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashes >= r.spec.MaxCrashes {
		return 0, false
	}
	if cp := r.spec.Crash; cp != nil {
		if cp.Phase == phase {
			for _, s := range sites {
				if s == cp.Site {
					r.crashes++
					return s, true
				}
			}
		}
		return 0, false
	}
	for _, s := range sites {
		if r.roll(kindCrash, uint64(phase), uint64(s), 0, 0) < r.spec.CrashRate {
			r.crashes++
			return s, true
		}
	}
	return 0, false
}

// DetectExtraBeats reports how many extra heartbeat periods the failure
// detector spends confirming that site is dead, beyond the configured
// HeartbeatMisses tolerance. Pure function of the site id, consumed by the
// detection logic in internal/netsim.
func (r *Registry) DetectExtraBeats(site int) int {
	if r == nil || r.spec.DetectJitterRate <= 0 {
		return 0
	}
	if r.roll(kindDetect, uint64(site), 0, 0, 0) < r.spec.DetectJitterRate {
		return 1
	}
	return 0
}
