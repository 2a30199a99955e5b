package core

import (
	"fmt"
	"sync"

	"gammajoin/internal/bitfilter"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
)

// runSortMerge executes the parallel sort-merge join (Section 3.1): both
// relations are redistributed by hashing the join attribute across the disk
// sites and stored in temporary files, the files are sorted in parallel
// with the available sort/merge memory, and a local merge join computes the
// result at each site. Bit filters are built at each disk site as the inner
// relation arrives and applied to the outer relation before it is stored —
// eliminated tuples are never written, sorted, or merged.
func (rc *runCtx) runSortMerge() error {
	// Join sites are the disk sites, minus any excluded by a recovery
	// restart (newRunCtx intersects JoinSites with the disk sites). A
	// dead site keeps serving reads of its base fragments and the result
	// store — its storage role survives on the mirrored disks — but no
	// longer sorts or merges.
	sites := rc.joinSites
	jt := &split.JoinTable{Sites: sites}
	memPerSite := rc.memTotal / int64(len(sites))
	if memPerSite < int64(rc.m.P.PageBytes) {
		memPerSite = int64(rc.m.P.PageBytes)
	}

	tmpR := make(map[int]*wiss.File, len(sites))
	srtR := make(map[int]*wiss.File, len(sites))
	tmpS := make(map[int]*wiss.File, len(sites))
	srtS := make(map[int]*wiss.File, len(sites))
	filters := rc.siteFilters()
	var err error
	for _, s := range sites {
		if tmpR[s], err = rc.newTempFile("sm.tmpR", s); err != nil {
			return err
		}
		if srtR[s], err = rc.newTempFile("sm.srtR", s); err != nil {
			return err
		}
		if tmpS[s], err = rc.newTempFile("sm.tmpS", s); err != nil {
			return err
		}
		if srtS[s], err = rc.newTempFile("sm.srtS", s); err != nil {
			return err
		}
	}

	// Each of sort-merge's five phases is its own redo-able unit: every
	// phase reads only durable inputs (base fragments or the previous
	// phase's flushed temp files) and a crash fires at phase entry, before
	// anything was appended — so after a failover the phase simply re-runs
	// with the dead site's scan/sort/merge/store roles adopted by its ring
	// neighbor and its files served from the mirror. The sort/merge plan
	// keeps the ORIGINAL site layout: the dead site's partitions stay
	// where its (mirrored) disk put them, no re-split needed.

	// Partition R across the join sites, building per-site bit filters.
	if err := rc.runUnit(func() error {
		return rc.smPartition("partition R", true, jt, tmpR, filters)
	}); err != nil {
		return err
	}
	if err := rc.runUnit(func() error {
		return rc.sortPhase("sort R", tmpR, srtR, rc.spec.RAttr, memPerSite, &rc.sortPassesR)
	}); err != nil {
		return err
	}

	// Partition S; the filter eliminates non-joining tuples before they
	// are written to disk.
	if err := rc.runUnit(func() error {
		return rc.smPartition("partition S", false, jt, tmpS, filters)
	}); err != nil {
		return err
	}
	if err := rc.runUnit(func() error {
		return rc.sortPhase("sort S", tmpS, srtS, rc.spec.SAttr, memPerSite, &rc.sortPassesS)
	}); err != nil {
		return err
	}

	// Local merge join in parallel across the disk sites.
	merge := phaseSpec{
		name:    "merge join",
		ops:     opLabels{produce: "merge join", consume: "store"},
		produce: map[int][]producerFn{},
		consume: map[int]consumerFn{},
	}
	for _, s := range sites {
		s := s
		merge.produce[s] = append(merge.produce[s], func(a *cost.Acct, snd *netsim.Sender) {
			rc.mergeJoinSite(s, a, snd, srtR[s], srtS[s])
		})
	}
	for _, ds := range rc.diskSites {
		ds := ds
		merge.consume[ds] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			rc.storeWriter(ds, a, batches)
		}
	}
	return rc.runUnit(func() error { return rc.runPhase(merge) })
}

// smPartition redistributes the inner (R) or outer (S) relation through
// the joining split table into per-site temporary files. The inner pass
// populates the per-site bit filters from the arriving tuples; the outer
// pass tests arriving tuples against the local filter and drops misses.
func (rc *runCtx) smPartition(name string, inner bool, jt *split.JoinTable,
	tmp map[int]*wiss.File, filters []*bitfilter.Filter) error {
	ps := newPhase(name, opLabels{produce: "scan", consume: "split write"}, -1)
	ps.end = gamma.EndOpts{SplitEntries: jt.Entries()}
	src, attr, p := rc.relSide(inner)
	rc.scanRoute(ps.produce, src, attr, p, 0, false, func(_ *cost.Acct, h uint64) (int, int) {
		return jt.Lookup(h), tagProbe
	})
	for _, s := range sortedKeys(tmp) {
		sk := &fileSink{base: tagProbe, slots: []*wiss.File{tmp[s]}, flush: []*wiss.File{tmp[s]},
			forming: true, building: inner}
		if filters != nil {
			sk.filters = []*bitfilter.Filter{filters[s]}
		}
		ps.consume[s] = rc.sinkConsumer(sk)
	}
	return rc.runPhase(ps)
}

// sortPhase sorts every site's temporary file in parallel and records the
// maximum number of merge passes across the sites.
func (rc *runCtx) sortPhase(name string, src, dst map[int]*wiss.File, attr int,
	memPerSite int64, passes *int) error {
	var mu sync.Mutex
	ps := phaseSpec{name: name, ops: opLabels{solo: "sort"}, solo: map[int][]func(a *cost.Acct){}}
	for _, s := range sortedKeys(src) {
		s := s
		ps.solo[s] = append(ps.solo[s], func(a *cost.Acct) {
			st, err := wiss.Sort(a, src[s], dst[s], attr, memPerSite)
			if err != nil {
				rc.fail(fmt.Errorf("core: %s at site %d: %w", name, s, err))
				return
			}
			mu.Lock()
			if st.MergePasses > *passes {
				*passes = st.MergePasses
			}
			mu.Unlock()
		})
	}
	return rc.runPhase(ps)
}

// mergeJoinSite merge-joins the two sorted local files, grouping duplicate
// inner keys so the outer scan never backs up. When the inner file is
// exhausted the outer scan stops early, skipping unread pages — the paper's
// explanation for sort-merge's strong NU performance.
func (rc *runCtx) mergeJoinSite(site int, a *cost.Acct, snd *netsim.Sender, rf, sf *wiss.File) {
	em := rc.newEmitter(site, snd)
	defer em.close()
	rcur := rf.NewCursor(a)
	scur := sf.NewCursor(a)
	rt, rok := rcur.Next()
	st, sok := scur.Next()
	// Cursor tuples are references into the sorted temp files, which stay
	// unmodified until the attempt drops them.
	var group []*tuple.Tuple
	for rok && sok {
		a.AddCPU(rc.m.SortCompare)
		rv := rt.Int(rc.spec.RAttr)
		sv := st.Int(rc.spec.SAttr)
		switch {
		case rv < sv:
			rt, rok = rcur.Next()
		case sv < rv:
			st, sok = scur.Next()
		default:
			// Collect the group of inner tuples sharing this key.
			group = group[:0]
			group = append(group, rt)
			for {
				rt, rok = rcur.Next()
				if !rok || rt.Int(rc.spec.RAttr) != rv {
					break
				}
				a.AddCPU(rc.m.SortCompare)
				group = append(group, rt)
			}
			for sok && st.Int(rc.spec.SAttr) == rv {
				a.AddCPU(rc.m.SortCompare)
				for i := range group {
					em.emit(a, group[i], st)
				}
				st, sok = scur.Next()
			}
		}
	}
}
