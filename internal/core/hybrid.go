package core

import (
	"fmt"

	"gammajoin/internal/bitfilter"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
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
	nb := rc.optimizerBuckets(true)
	rc.buckets = nb
	seed := rc.spec.HashSeed

	// The two partitioning phases are ONE redo-able unit: bucket 1 lives
	// only in the join sites' memories between them, so a crash before the
	// probe completes loses in-memory state and both passes must re-run.
	// Everything the unit consumes is durable (base fragments, covered by
	// mirrors); everything it creates — split table, hash tables, filters,
	// bucket and overflow files (freshly named each attempt via fileSeq) —
	// is rebuilt inside the closure, over the possibly-shrunken join-site
	// list. The bucket files that survive the unit feed the later phases.
	var (
		rb, sb         []map[int]*wiss.File
		roverF, soverF map[int]*wiss.File
	)
	if err := rc.runUnit(func() error {
		return rc.hybridPartition(nb, seed, &rb, &sb, &roverF, &soverF)
	}); err != nil {
		return err
	}

	// ---- phases 3..: join the on-disk buckets ----
	for b := 1; b < nb; b++ {
		rsrc := rc.bucketSources(rb, b)
		ssrc := rc.bucketSources(sb, b)
		if err := rc.hashJoinStreams(fmt.Sprintf("bucket %d", b+1), b, rsrc, ssrc, seed, 0); err != nil {
			return err
		}
	}

	// ---- resolve bucket-1 overflow, if any (AllowOverflow mode) ----
	var rover, sover []fileAt
	for _, j := range sortedKeys(roverF) {
		if roverF[j].Len() > 0 {
			home := rc.c.OverflowDiskSite(j)
			rover = append(rover, fileAt{site: home, f: roverF[j]})
			sover = append(sover, fileAt{site: home, f: soverF[j]})
		}
	}
	if len(rover) > 0 {
		return rc.hashJoinStreams("bucket 1", 0, rover, sover, seed+1, 1)
	}
	return nil
}

// hybridPartition runs Hybrid's overlapped partitioning passes (Section
// 3.4): partition R building bucket 1 in memory, then partition S probing
// it on the fly. The output files are handed back through the pointers so
// runHybrid's bucket-join phases (and the overflow resolution) read the
// files of the attempt that actually completed.
func (rc *runCtx) hybridPartition(nb int, seed uint64,
	rbOut, sbOut *[]map[int]*wiss.File, roverOut, soverOut *map[int]*wiss.File) error {
	pt, err := split.NewHybrid(nb, rc.diskSites, rc.joinSites)
	if err != nil {
		return err
	}

	tables := make(map[int]*gamma.HashTable, len(rc.joinSites))
	var filters map[int]*bitfilter.Filter
	if rc.spec.BitFilter {
		filters = make(map[int]*bitfilter.Filter, len(rc.joinSites))
	}
	roverF := make(map[int]*wiss.File, len(rc.joinSites))
	soverF := make(map[int]*wiss.File, len(rc.joinSites))
	for _, j := range rc.joinSites {
		tables[j] = gamma.NewHashTable(rc.m, rc.tableCap(), rc.spec.RAttr)
		if filters != nil {
			filters[j] = bitfilter.New(rc.filterBits)
		}
		home := rc.c.OverflowDiskSite(j)
		if roverF[j], err = rc.newTempFile("hybrid.rover", home); err != nil {
			return err
		}
		if soverF[j], err = rc.newTempFile("hybrid.sover", home); err != nil {
			return err
		}
	}
	rb, err := rc.makeBucketFiles("hybrid.r", 1, nb)
	if err != nil {
		return err
	}
	sb, err := rc.makeBucketFiles("hybrid.s", 1, nb)
	if err != nil {
		return err
	}
	ff := rc.makeFormingFilters(1, nb)
	*rbOut, *sbOut = rb, sb
	*roverOut, *soverOut = roverF, soverF

	// ---- phase 1: partition R, building bucket 1 in memory ----
	partR := phaseSpec{
		name:      "partition R + build bucket 1",
		end:       gamma.EndOpts{SplitEntries: pt.Entries()},
		ops:       opLabels{produce: "scan", consume: "split + build bucket 1", write: "overflow write"},
		bucket:    0,
		hasBucket: true,
		produce:   map[int][]producerFn{},
		consume:   map[int]consumerFn{},
		write:     map[int]writerFn{},
	}
	for _, s := range rc.spec.R.FragmentSites() {
		f := rc.spec.R.Fragments[s]
		partR.produce[s] = append(partR.produce[s], func(a *cost.Acct, snd *netsim.Sender) {
			f.Scan(a, func(t *tuple.Tuple) bool {
				if !rc.scanPred(a, rc.spec.RPred, t) {
					return true
				}
				a.AddCPU(rc.m.Hash)
				h := split.Hash(t.Int(rc.spec.RAttr), seed)
				b, dst := pt.Lookup(h)
				if b == 0 {
					snd.Send(dst, tagProbe, t, h)
				} else {
					snd.Send(dst, b, t, h)
				}
				return true
			})
		})
	}
	rc.hybridConsumers(partR.consume, func(j int) consumerFn {
		return func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			tbl := tables[j]
			var flt *bitfilter.Filter
			if filters != nil {
				flt = filters[j]
			}
			home := rc.c.OverflowDiskSite(j)
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				for i := range b.Tuples {
					h := b.Hashes[i]
					if flt != nil {
						a.AddCPU(rc.m.FilterBit)
						flt.Set(h)
					}
					if gamma.AboveCutoff(tbl.Cutoff(), h) {
						rc.mROver.Add(1)
						snd.Send(home, tagROverBase+j, b.Tuples[i], h)
						continue
					}
					evs := tbl.Insert(a, b.Tuples[i], h)
					for k := range evs {
						rc.mROver.Add(1)
						snd.Send(home, tagROverBase+j, &evs[k], 0)
					}
				}
			}
			rc.applyMemPressure(a, snd, j, tbl)
			rc.overflowClears.Add(int64(tbl.Overflows()))
		}
	}, rb, ff, true)
	rc.addOverflowWriters(partR.write, roverF, tagROverBase)
	if err := rc.runPhase(partR); err != nil {
		return err
	}

	// Dense site-indexed cutoffs: the partition-S scan reads one per tuple.
	cutoffs := make([]uint64, len(rc.c.Sites))
	for _, j := range rc.joinSites {
		cutoffs[j] = tables[j].Cutoff()
	}

	// ---- phase 2: partition S, probing bucket 1 on the fly ----
	partS := phaseSpec{
		name:      "partition S + probe bucket 1",
		end:       gamma.EndOpts{SplitEntries: pt.Entries()},
		ops:       opLabels{produce: "scan", consume: "split + probe bucket 1", write: "store"},
		bucket:    0,
		hasBucket: true,
		produce:   map[int][]producerFn{},
		consume:   map[int]consumerFn{},
		write:     map[int]writerFn{},
	}
	for _, s := range rc.spec.S.FragmentSites() {
		f := rc.spec.S.Fragments[s]
		partS.produce[s] = append(partS.produce[s], func(a *cost.Acct, snd *netsim.Sender) {
			if filters != nil {
				a.AddCPU(rc.m.PacketProto) // receive the shared filter packet
			}
			f.Scan(a, func(t *tuple.Tuple) bool {
				if !rc.scanPred(a, rc.spec.SPred, t) {
					return true
				}
				a.AddCPU(rc.m.Hash)
				h := split.Hash(t.Int(rc.spec.SAttr), seed)
				b, dst := pt.Lookup(h)
				if b != 0 {
					snd.Send(dst, b, t, h)
					return true
				}
				if filters != nil {
					a.AddCPU(rc.m.FilterBit)
					if !filters[dst].Test(h) {
						rc.filterDropped.Add(1)
						return true
					}
				}
				if gamma.AboveCutoff(cutoffs[dst], h) {
					rc.mSOver.Add(1)
					snd.Send(rc.c.OverflowDiskSite(dst), tagSOverBase+dst, t, h)
					return true
				}
				snd.Send(dst, tagProbe, t, h)
				return true
			})
		})
	}
	rc.hybridConsumers(partS.consume, func(j int) consumerFn {
		return func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			tbl := tables[j]
			em := rc.newEmitter(j, snd)
			defer em.close()
			onMatch := func(outer, match *tuple.Tuple) { em.emit(a, match, outer) }
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				tbl.ProbeBatch(a, b.Tuples, b.Hashes, rc.spec.SAttr, onMatch)
			}
			rc.noteChains(j, tbl)
		}
	}, sb, ff, false)
	// Disk-site consumers also append S-overflow batches sent directly by
	// the producers; fold that into the bucket consumer via tag dispatch.
	// Stage-2 writers only handle the result store (probe consumers emit
	// composite tuples to them).
	rc.addFileAppendConsumers(partS.consume, soverF, tagSOverBase)
	for _, ds := range rc.diskSites {
		ds := ds
		partS.write[ds] = func(a *cost.Acct, batches []*netsim.Batch) {
			rc.storeWriter(ds, a, batches)
		}
	}
	if err := rc.runPhase(partS); err != nil {
		return err
	}
	// Past the probe barrier no worker holds pointers into the bucket-1
	// tables; recycle their arrays (error paths leave them to the GC).
	for _, j := range rc.joinSites {
		tables[j].Release()
	}
	return nil
}

// hybridConsumers installs one consumer per site participating in a Hybrid
// partitioning phase: join sites get the build/probe behaviour from mk,
// disk sites append bucket-file batches, and a site playing both roles (the
// local configuration) dispatches on the stream tag.
func (rc *runCtx) hybridConsumers(consume map[int]consumerFn, mk func(j int) consumerFn,
	buckets []map[int]*wiss.File, formFilters []map[int]*bitfilter.Filter, building bool) {
	isJoin := make(map[int]bool, len(rc.joinSites))
	for _, j := range rc.joinSites {
		isJoin[j] = true
	}
	bucketFn := func(ds int) consumerFn {
		return func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			for _, b := range batches {
				if b.Tag < 1 || b.Tag >= len(buckets) {
					continue
				}
				f := buckets[b.Tag][ds]
				var flt *bitfilter.Filter
				if formFilters != nil {
					flt = formFilters[b.Tag][ds]
				}
				if flt == nil {
					f.AppendBatch(a, b.Tuples)
				} else {
					for i := range b.Tuples {
						a.AddCPU(rc.m.FilterBit)
						if building {
							flt.Set(b.Hashes[i])
						} else if !flt.Test(b.Hashes[i]) {
							rc.filterDropped.Add(1)
							continue
						}
						f.Append(a, b.Tuples[i])
					}
				}
				if b.Local {
					rc.mFormLocal.Add(int64(len(b.Tuples)))
				} else {
					rc.mFormRemote.Add(int64(len(b.Tuples)))
				}
			}
			for bkt := 1; bkt < len(buckets); bkt++ {
				buckets[bkt][ds].Flush(a)
			}
		}
	}
	for _, ds := range rc.diskSites {
		consume[ds] = bucketFn(ds)
	}
	for _, j := range rc.joinSites {
		join := mk(j)
		if prev, ok := consume[j]; ok {
			prev := prev
			consume[j] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
				join(a, snd, batches)
				prev(a, snd, batches)
			}
		} else {
			consume[j] = join
		}
	}
}
