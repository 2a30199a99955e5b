package core

import (
	"fmt"
	"sort"

	"gammajoin/internal/split"
	"gammajoin/internal/wiss"
)

// runHybrid executes the parallel Hybrid hash-join (Section 3.4). The
// partitioning of R into buckets is overlapped with building in-memory hash
// tables from bucket 1 at the join sites, and the partitioning of S is
// overlapped with probing; the remaining N-1 buckets are then joined like
// Grace buckets. With AllowOverflow the first bucket may exceed memory and
// the Simple-hash overflow mechanism resolves it (Figure 7's "optimistic"
// strategy).
func (rc *runCtx) runHybrid() error {
	nb := rc.buckets

	// The two partitioning phases are ONE redo-able unit: bucket 1 lives
	// only in the join sites' memories between them, so a crash before the
	// probe completes loses in-memory state and both passes must re-run.
	// Everything the unit consumes is durable (base fragments, covered by
	// mirrors); everything it creates — split table, hash tables, filters,
	// bucket and overflow files (freshly named each attempt via fileSeq) —
	// is rebuilt inside the closure, over the possibly-shrunken join-site
	// list. The bucket files that survive the unit feed the later phases.
	var (
		rb, sb []map[int]*wiss.File
		js     *joinSet
	)
	if err := rc.runUnit(func() (err error) {
		rb, sb, js, err = rc.hybridPartition(nb)
		return err
	}); err != nil {
		return err
	}

	// ---- phases 3..: join the on-disk buckets ----
	for b := 1; b < nb; b++ {
		rsrc := rc.bucketSources(rb, b)
		ssrc := rc.bucketSources(sb, b)
		if err := rc.hashJoin(fmt.Sprintf("bucket %d", b+1), b, rsrc, ssrc, 0, 0, nil, nil); err != nil {
			return err
		}
	}

	// ---- resolve bucket-1 overflow, if any (AllowOverflow mode) ----
	// The partitioning unit's join sites, in site order: later bucket
	// joins may have shrunk rc.joinSites since.
	sites := append([]int(nil), js.sites...)
	sort.Ints(sites)
	if rover, sover := js.overflowSources(rc, sites); len(rover) > 0 {
		return rc.hashJoin("bucket 1", 0, rover, sover, 1, 1, nil, nil)
	}
	return nil
}

// hybridPartition runs Hybrid's overlapped partitioning passes (Section
// 3.4): partition R building bucket 1 in memory, then partition S probing
// it on the fly. It returns the bucket files and the bucket-1 join set of
// the attempt, which runHybrid's bucket-join phases (and the overflow
// resolution) read.
func (rc *runCtx) hybridPartition(nb int) (rb, sb []map[int]*wiss.File, js *joinSet, err error) {
	pt, err := split.NewHybrid(nb, rc.diskSites, rc.joinSites)
	if err != nil {
		return nil, nil, nil, err
	}
	if js, err = rc.newJoinSet("hybrid"); err != nil {
		return nil, nil, nil, err
	}
	if rb, err = rc.makeBucketFiles("hybrid.r", 1, nb); err != nil {
		return nil, nil, nil, err
	}
	if sb, err = rc.makeBucketFiles("hybrid.s", 1, nb); err != nil {
		return nil, nil, nil, err
	}
	ff := rc.makeFormingFilters(1, nb)

	// ---- phase 1: partition R, building bucket 1 in memory ----
	partR := newPhase("partition R + build bucket 1",
		opLabels{produce: "scan", consume: "split + build bucket 1", write: "overflow write"}, 0)
	if err := rc.partitionPhase(partR, true, pt, rb, ff, js); err != nil {
		return nil, nil, nil, err
	}
	js.publishCutoffs()

	// ---- phase 2: partition S, probing bucket 1 on the fly ----
	partS := newPhase("partition S + probe bucket 1",
		opLabels{produce: "scan", consume: "split + probe bucket 1", write: "store"}, 0)
	if err := rc.partitionPhase(partS, false, pt, sb, ff, js); err != nil {
		return nil, nil, nil, err
	}
	js.release()
	return rb, sb, js, nil
}
