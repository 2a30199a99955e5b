package core

import (
	"fmt"
	"math"
	"sort"

	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
	"gammajoin/internal/xrand"
)

// dynPartSalt decorrelates the *sub*-partition function from the system
// hash (the identity on benchmark keys), so a site's partitions fill evenly
// even on dense key ranges.
const dynPartSalt = 0xD7A2_51DE_0000_0001

// dynPer is the sub-partition count per join site: partition p belongs to
// join site p/per, exactly the site the joining split table (h mod nj)
// would pick for p's hashes.
func (rc *runCtx) dynPer(np int) int {
	per := np / len(rc.joinSites)
	if per < 1 {
		per = 1
	}
	return per
}

// dynPart maps a routing hash to a dynamic-Hybrid partition. The high part
// of the index is the joining split table's choice (h mod nj) — so routing
// a tuple to its partition's owner sends it exactly where static Hybrid
// would, preserving the paper's Table 2 locality when relations are
// hash-partitioned on the join attribute — and the low part sub-partitions
// the site's share into per independently spillable pieces.
func (rc *runCtx) dynPart(h uint64, np int) int {
	nj := uint64(len(rc.joinSites))
	per := uint64(rc.dynPer(np))
	return int((h%nj)*per + xrand.Mix64(h^dynPartSalt)%per)
}

// dynOwner is the join site that owns a partition: it builds the partition's
// resident hash table and makes its spill/keep decisions. After a failover
// shrinks the join-site list, np/per no longer divide evenly and the tail of
// the partition range becomes unreachable by dynPart; the clamp keeps those
// never-filled partitions owned by the last site.
func (rc *runCtx) dynOwner(p, np int) int {
	idx := p / rc.dynPer(np)
	if idx >= len(rc.joinSites) {
		idx = len(rc.joinSites) - 1
	}
	return rc.joinSites[idx]
}

// dynHome is the disk site holding a partition's spill files: the disk
// co-located with the partition's owner when the owner has one (the local
// configuration — spills and spilled-outer forwards then stay off the
// wire, like static Hybrid's split-table-aligned bucket fragments), or the
// owner-indexed disk otherwise.
func (rc *runCtx) dynHome(p, np int) int {
	return rc.diskSites[(p/rc.dynPer(np))%len(rc.diskSites)]
}

// The running budget multiplier is clamped so compounding swings cannot
// starve a site to zero or grow its lease without bound.
const (
	dynMinFactor = 0.125
	dynMaxFactor = 4.0
)

// dynSite is one join site's adaptation state during the dynamic build:
// the partitions it owns, their resident hash tables, and the site's
// current share of the (fluctuating) aggregate memory budget. It is only
// ever touched by the owning site's worker goroutine during a phase and by
// the coordinator at phase barriers.
type dynSite struct {
	parts  []int                    // owned partitions, ascending
	tables map[int]*gamma.HashTable // one table per owned partition
	budget int64                    // current resident-byte budget
	factor float64                  // cumulative budget multiplier, clamped
	epoch  int                      // batch ordinal driving BudgetSwing rolls
}

// residentBytes is the site's current resident payload (spilled partitions'
// tables are empty, so summing every owned table is exact).
func (st *dynSite) residentBytes() int64 {
	var n int64
	for _, p := range st.parts {
		n += st.tables[p].BytesUsed()
	}
	return n
}

// runHybridDyn executes the dynamic robust Hybrid hash join (arXiv
// 2112.02480 applied to the Section 3.4 parallel Hybrid): every partition
// starts resident, the spill decision is deferred until observed build
// sizes or a budget revocation force one (victim = largest resident
// partition, seed-stable), and reclaimed headroom resurrects spilled
// partitions at the build/probe barrier. Partitions still spilled when the
// probe ends are joined from disk exactly like Grace buckets.
func (rc *runCtx) runHybridDyn() error {
	np := rc.dynPartitions()
	rc.buckets = np

	// Build + resurrect + probe are ONE redo-able unit: the resident
	// partitions live only in the join sites' memories between the phases,
	// so a crash loses them and the whole pass must re-run. Everything the
	// unit consumes is durable; everything it creates (tables, filters,
	// partition files — freshly named each attempt via fileSeq) is rebuilt
	// inside the closure over the possibly-shrunken join-site list.
	var (
		rFiles, sFiles []*wiss.File
		spilled        []bool
	)
	if err := rc.runUnit(func() (err error) {
		rFiles, sFiles, spilled, err = rc.dynBuildProbe(np)
		return err
	}); err != nil {
		return err
	}

	// ---- join the partitions that stayed spilled, grouped to memory ----
	// Partitions are finer-grained than static Hybrid's buckets, so joining
	// them one per phase would pay one scheduler startup per partition.
	// Instead they are first-fit-decreasing packed into memory-sized join
	// groups (partitions are disjoint in key space, so any union of them
	// joins correctly in one pass) — the same packing bucket tuning applies
	// to Grace's measured buckets.
	var spilledParts []int
	for p := 0; p < np; p++ {
		if spilled[p] && rFiles[p].Len() > 0 {
			spilledParts = append(spilledParts, p)
		}
	}
	for _, group := range rc.dynJoinGroups(spilledParts, rFiles, np) {
		var rsrc, ssrc []fileAt
		for _, p := range group {
			rsrc = append(rsrc, fileAt{site: rc.dynHome(p, np), f: rFiles[p]})
			if sFiles[p].Len() > 0 {
				ssrc = append(ssrc, fileAt{site: rc.dynHome(p, np), f: sFiles[p]})
			}
		}
		if err := rc.hashJoin(groupLabel("partition", group), group[0], rsrc, ssrc, 0, 0, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// dynJoinGroups packs spilled partitions into join groups, largest
// partition first (ties to the lowest id). Partition p's tuples all join at
// site p/per (the split-table-aligned index), so packing tracks a per-site
// load vector against the site's table capacity, like bucket tuning. A
// partition too big alone gets its own group; the join's overflow machinery
// absorbs the excess. Unlike bucketGroups, a fit checks only the new
// partition's own site, so a partition may join a group that an oversized
// partition overloads at another site. Both rules shape simulated cost
// (TestCostFingerprint's tuned-skew Grace and mis-estimated hybrid-dyn
// cells move under either one alone), so the two packers stay separate.
func (rc *runCtx) dynJoinGroups(parts []int, rFiles []*wiss.File, np int) [][]int {
	per := rc.dynPer(np)
	capBytes := rc.tableCap()
	nj := len(rc.joinSites)
	order := append([]int(nil), parts...)
	sort.SliceStable(order, func(i, j int) bool {
		return rFiles[order[i]].Len() > rFiles[order[j]].Len()
	})
	var groups [][]int
	var loads [][]int64
	for _, p := range order {
		sz := rFiles[p].Len() * tuple.Bytes
		j := p / per
		if j >= nj {
			j = nj - 1
		}
		placed := false
		for g := range groups {
			if loads[g][j]+sz <= capBytes {
				groups[g] = append(groups[g], p)
				loads[g][j] += sz
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{p})
			l := make([]int64, nj)
			l[j] = sz
			loads = append(loads, l)
		}
	}
	for g := range groups {
		sort.Ints(groups[g])
	}
	return groups
}

// dynPartitions picks the partition count from the (possibly mis-estimated)
// inner size: about twice the estimated memory need per join site, so the
// resident set has enough granularity to track the budget, floored at 4 and
// capped at 16 partitions per site. Unlike static Hybrid's bucket count, a
// wrong estimate here only coarsens granularity — it never locks in a wrong
// resident fraction.
func (rc *runCtx) dynPartitions() int {
	nj := len(rc.joinSites)
	if rc.spec.ForceBuckets > 0 {
		// Round up to a per-site granularity: the partition index encodes
		// the owning join site, so np must be a multiple of the site count.
		per := (rc.spec.ForceBuckets + nj - 1) / nj
		return per * nj
	}
	innerBytes := rc.spec.R.Bytes()
	if rc.spec.InnerSizeHint > 0 {
		innerBytes = rc.spec.InnerSizeHint
	}
	need := rc.estimatedInner(innerBytes) / float64(rc.memTotal)
	per := int(math.Ceil(2 * need))
	if per < 4 {
		per = 4
	}
	if per > 16 {
		per = 16
	}
	return per * nj
}

// makePartitionFiles creates one temporary file per dynamic-Hybrid
// partition, each at the partition's home disk site. Unlike bucket files,
// a partition is not horizontally fragmented: spills are rare whole-table
// demotions, so each partition lives on one disk.
func (rc *runCtx) makePartitionFiles(name string, np int) ([]*wiss.File, error) {
	files := make([]*wiss.File, np)
	for p := range files {
		f, err := rc.newTempFile(fmt.Sprintf("%s.p%d", name, p), rc.dynHome(p, np))
		if err != nil {
			return nil, err
		}
		files[p] = f
	}
	return files, nil
}

// dynSinks builds the per-home-disk sinks appending batches tagged
// tagBase+partition to the partition files. Spill writes are forming
// writes: they count toward the paper's local-write fraction like bucket
// writes do.
func (rc *runCtx) dynSinks(tagBase int, files []*wiss.File) map[int]*fileSink {
	np := len(files)
	parts := make([]int, np)
	for p := range parts {
		parts[p] = p
	}
	return rc.homedSinks(tagBase, files, parts, func(p int) int { return rc.dynHome(p, np) }, true)
}

// dynBuildProbe runs the adaptive build, the barrier-time resurrection, and
// the overlapped partition-S/probe pass. It returns the partition files and
// the final spill state of the attempt, which runHybridDyn's disk-join
// phases read.
func (rc *runCtx) dynBuildProbe(np int) (rFiles, sFiles []*wiss.File, spilled []bool, err error) {
	if rFiles, err = rc.makePartitionFiles("hybriddyn.r", np); err != nil {
		return nil, nil, nil, err
	}
	if sFiles, err = rc.makePartitionFiles("hybriddyn.s", np); err != nil {
		return nil, nil, nil, err
	}
	spilled = make([]bool, np)
	// poisoned marks the (vanishingly rare) partition holding a tuple whose
	// overflow key saturates the cutoff domain; such a partition must stay
	// spilled because its tuples cannot re-enter a cutoff-guarded table.
	poisoned := make([]bool, np)

	// The bit filters route the probe like a join set without tables or
	// cutoffs: resident partitions never divert to overflow files.
	js := &joinSet{filters: rc.siteFilters()}
	states := make(map[int]*dynSite, len(rc.joinSites))
	// Tables are allocated generously — the largest budget a swing can ever
	// grant, plus slack — so the histogram/cutoff eviction machinery never
	// fires inside a "resident" partition; partitions move to disk whole or
	// not at all, which is the invariant the probe relies on.
	gencap := int64(dynMaxFactor*float64(rc.tableCap())) + 64*tuple.Bytes
	for _, j := range rc.joinSites {
		states[j] = &dynSite{tables: make(map[int]*gamma.HashTable)}
	}
	for p := 0; p < np; p++ {
		st := states[rc.dynOwner(p, np)]
		st.parts = append(st.parts, p)
		st.tables[p] = gamma.NewHashTable(rc.m, gencap, rc.spec.RAttr)
	}

	// ---- phase 1: partition R — every partition starts resident ----
	// Every inner tuple flows through its partition's owner, spill-bound
	// ones included: the owner observes true partition sizes (the whole
	// point of deferring the spill) and its bit filter covers the entire
	// inner relation, so filtering spilled outer tuples stays safe.
	build := newPhase("dyn partition R + build",
		opLabels{produce: "scan", consume: "build + adapt", write: "spill write"}, -1)
	build.end = gamma.EndOpts{SplitEntries: np}
	src, attr, pr := rc.relSide(true)
	rc.scanRoute(build.produce, src, attr, pr, 0, false, func(_ *cost.Acct, h uint64) (int, int) {
		return rc.dynOwner(rc.dynPart(h, np), np), tagProbe
	})
	phaseOrd := len(rc.q.Phases)
	for _, j := range rc.joinSites {
		j := j
		build.consume[j] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			st := states[j]
			// The admission-time lease may already be under pressure: the
			// registry's per-phase factor seeds the budget, so a shrink is
			// a revocation the build absorbs from the first tuple on.
			rc.dynInitBudget(a, st, phaseOrd)
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				for i := range b.Tuples {
					h := b.Hashes[i]
					rc.filterSet(js.filters, a, j, h)
					p := rc.dynPart(h, np)
					if spilled[p] {
						snd.Send(rc.dynHome(p, np), tagDynRBase+p, b.Tuples[i], h)
						continue
					}
					tbl := st.tables[p]
					if gamma.AboveCutoff(tbl.Cutoff(), h) || tbl.BytesUsed()+tuple.Bytes > gencap {
						// Outgrew even the generous allocation (or carries a
						// cutoff-saturating key): demote the partition whole.
						if gamma.AboveCutoff(tbl.Cutoff(), h) {
							poisoned[p] = true
						}
						a.AddCPU(rc.m.SpillDecide)
						rc.dynSpill(a, snd, st, p, np, spilled)
						snd.Send(rc.dynHome(p, np), tagDynRBase+p, b.Tuples[i], h)
						continue
					}
					tbl.Insert(a, b.Tuples[i], h)
				}
				// One batch = one adaptation epoch: roll the swing injector,
				// then enforce the budget largest-partition-first.
				st.epoch++
				if f := rc.c.Faults.BudgetSwing(phaseOrd, st.epoch); f != 1 {
					rc.dynRebudget(a, st, f)
				}
				rc.dynEnforce(a, snd, st, np, spilled)
			}
		}
	}
	rc.addSinkWriters(build.write, rc.dynSinks(tagDynRBase, rFiles))
	if err := rc.runPhase(build); err != nil {
		return nil, nil, nil, err
	}

	// ---- barrier: resurrect spilled partitions into reclaimed headroom ----
	// Largest spilled partition first (ties to the lowest id), greedily
	// while it fits — the mirror image of the spill policy, so a budget
	// that swung down and back up converges on the same resident set an
	// untouched build would have kept.
	resurrect := make(map[int][]int) // home disk site -> partitions, ascending
	var nRes int
	for _, j := range rc.joinSites {
		st := states[j]
		headroom := st.budget - st.residentBytes()
		var cands []int
		for _, p := range st.parts {
			if spilled[p] && !poisoned[p] && rFiles[p].Len() > 0 {
				cands = append(cands, p)
			}
		}
		sort.SliceStable(cands, func(a, b int) bool {
			return rFiles[cands[a]].Len() > rFiles[cands[b]].Len()
		})
		for _, p := range cands {
			sz := rFiles[p].Len() * tuple.Bytes
			if sz > headroom {
				continue
			}
			headroom -= sz
			home := rc.dynHome(p, np)
			resurrect[home] = append(resurrect[home], p)
			nRes++
		}
	}
	for _, parts := range resurrect {
		sort.Ints(parts)
	}
	if nRes > 0 {
		if err := rc.dynResurrect(np, states, resurrect, rFiles); err != nil {
			return nil, nil, nil, err
		}
		for _, home := range sortedKeys(resurrect) {
			for _, p := range resurrect[home] {
				spilled[p] = false
			}
		}
	}

	// ---- phase: partition S, probing the resident partitions ----
	probe := newPhase("dyn partition S + probe",
		opLabels{produce: "scan", consume: "split + probe", write: "store"}, -1)
	probe.end = gamma.EndOpts{SplitEntries: np}
	src, attr, pr = rc.relSide(false)
	rc.scanRoute(probe.produce, src, attr, pr, 0, js.filters != nil, func(a *cost.Acct, h uint64) (int, int) {
		p := rc.dynPart(h, np)
		if !spilled[p] {
			return rc.probeDest(js, a, rc.dynOwner(p, np), h)
		}
		// The owner's filter saw the whole inner, so dropping disk-bound
		// outer tuples is safe — but like static Hybrid's bucket forming
		// it is the FilterForming extension, not the base algorithm.
		if rc.spec.FilterForming && !rc.filterPass(js.filters, a, rc.dynOwner(p, np), h) {
			return -1, 0
		}
		return rc.dynHome(p, np), tagDynSBase + p
	})
	for _, j := range rc.joinSites {
		j := j
		probe.consume[j] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			st := states[j]
			em := rc.newEmitter(j, snd)
			defer em.close()
			// Each tuple may hit a different partition's table, so every
			// outer tuple probes as a one-element run of its batch.
			onMatch := func(outer, match *tuple.Tuple) { em.emit(a, match, outer) }
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				for i, h := range b.Hashes {
					tbl := st.tables[rc.dynPart(h, np)]
					tbl.ProbeBatch(a, b.Tuples[i:i+1], b.Hashes[i:i+1], rc.spec.SAttr, onMatch)
				}
			}
			for _, p := range st.parts {
				if tbl := st.tables[p]; tbl.Len() > 0 {
					rc.noteChains(j, tbl)
				}
			}
		}
	}
	rc.addSinkConsumers(probe.consume, rc.dynSinks(tagDynSBase, sFiles))
	rc.addStoreWriters(probe.write)
	if err := rc.runPhase(probe); err != nil {
		return nil, nil, nil, err
	}
	// The probe barrier has passed, so no worker still holds pointers into
	// the per-partition tables; the disk-join phases that follow read only
	// the partition files. Recycle the table arrays (error paths leave them
	// to the GC — the redo machinery rebuilds fresh state).
	for _, j := range rc.joinSites {
		for _, tbl := range states[j].tables {
			tbl.Release()
		}
	}
	return rFiles, sFiles, spilled, nil
}

// dynInitBudget seeds a site's budget from the fault registry's per-phase
// memory-pressure factor, noting the initial revocation or re-grant against
// the nominal lease.
func (rc *runCtx) dynInitBudget(a *cost.Acct, st *dynSite, phaseOrd int) {
	base := rc.tableCap()
	f := rc.c.Faults.MemFactor(phaseOrd)
	if f < dynMinFactor {
		f = dynMinFactor
	}
	if f > dynMaxFactor {
		f = dynMaxFactor
	}
	st.factor = f
	st.budget = int64(f * float64(base))
	switch {
	case st.budget < base:
		a.Note("mem.revoke", base-st.budget)
		rc.revokedBytes.Add(base - st.budget)
	case st.budget > base:
		a.Note("mem.regrant", st.budget-base)
	}
}

// dynRebudget compounds a budget-swing factor into the site's running
// multiplier (clamped) and notes the revocation or re-grant.
func (rc *runCtx) dynRebudget(a *cost.Acct, st *dynSite, f float64) {
	nf := st.factor * f
	if nf < dynMinFactor {
		nf = dynMinFactor
	}
	if nf > dynMaxFactor {
		nf = dynMaxFactor
	}
	st.factor = nf
	nb := int64(nf * float64(rc.tableCap()))
	switch {
	case nb < st.budget:
		a.Note("mem.revoke", st.budget-nb)
		rc.revokedBytes.Add(st.budget - nb)
	case nb > st.budget:
		a.Note("mem.regrant", nb-st.budget)
	}
	st.budget = nb
}

// dynEnforce spills whole partitions, largest first (ties to the lowest
// id), until the site's resident payload fits its budget. Each victim
// choice is a priced adaptation decision.
func (rc *runCtx) dynEnforce(a *cost.Acct, snd *netsim.Sender, st *dynSite, np int, spilled []bool) {
	for st.residentBytes() > st.budget {
		a.AddCPU(rc.m.SpillDecide)
		victim, vb := -1, int64(0)
		for _, p := range st.parts {
			if spilled[p] {
				continue
			}
			if b := st.tables[p].BytesUsed(); b > vb {
				vb, victim = b, p
			}
		}
		if victim < 0 || vb == 0 {
			return
		}
		rc.dynSpill(a, snd, st, victim, np, spilled)
	}
}

// dynSpill demotes one whole partition: its table drains to the partition's
// home disk file (routing hashes ride along) and the partition is marked
// spilled so later tuples bypass the owner's memory.
func (rc *runCtx) dynSpill(a *cost.Acct, snd *netsim.Sender, st *dynSite, p, np int, spilled []bool) {
	tuples, hashes := st.tables[p].SpillAll(a)
	home := rc.dynHome(p, np)
	for i := range tuples {
		snd.Send(home, tagDynRBase+p, &tuples[i], hashes[i])
	}
	spilled[p] = true
	a.Note("part.spill", int64(len(tuples)))
	rc.spillCount.Add(1)
}

// dynResurrect re-reads the chosen partitions from their home disks and
// rebuilds their hash tables at the owning join sites.
func (rc *runCtx) dynResurrect(np int, states map[int]*dynSite,
	resurrect map[int][]int, rFiles []*wiss.File) error {
	res := newPhase("dyn resurrect", opLabels{produce: "partition scan", consume: "rebuild"}, -1)
	for _, ds := range sortedKeys(resurrect) {
		for _, p := range resurrect[ds] {
			// The scan recomputes each tuple's routing hash.
			owner := rc.dynOwner(p, np)
			rc.scanRoute(res.produce, []fileAt{{site: ds, f: rFiles[p]}}, rc.spec.RAttr, nil, 0, false,
				func(_ *cost.Acct, _ uint64) (int, int) { return owner, tagProbe })
		}
	}
	for _, j := range rc.joinSites {
		j := j
		res.consume[j] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			st := states[j]
			counts := make(map[int]int64)
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				for i := range b.Tuples {
					h := b.Hashes[i]
					p := rc.dynPart(h, np)
					st.tables[p].Insert(a, b.Tuples[i], h)
					counts[p]++
				}
			}
			for _, p := range sortedKeys(counts) {
				a.AddCPU(rc.m.ResurrectDecide)
				a.Note("part.resurrect", counts[p])
				rc.resurrections.Add(1)
			}
		}
	}
	return rc.runPhase(res)
}
