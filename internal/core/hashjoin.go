package core

import (
	"fmt"

	"gammajoin/internal/bitfilter"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/pred"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
)

// hashJoinStreams joins a set of inner-relation source files against a set
// of outer-relation source files by redistributing them through the joining
// split table, building and probing memory-limited hash tables at the join
// sites, and recursively resolving hash-table overflow with the paper's
// histogram/cutoff mechanism — i.e., the Simple hash-join, which is also
// Gamma's overflow-resolution method for Grace and Hybrid bucket joins.
//
// Each overflow level uses a new hash function (seed+1), which is what
// converts HPJA joins into non-HPJA joins after the first overflow
// (Section 4.1).
//
// base is the overflow level the first iteration represents (0 for a fresh
// Simple join, 1 when resolving a Hybrid first-bucket overflow). bucket is
// the 0-based bucket this join processes, carried onto the trace spans (-1
// for un-bucketed joins).
func (rc *runCtx) hashJoinStreams(prefix string, bucket int, rsrc, ssrc []fileAt, seed uint64, base int) error {
	return rc.hashJoinStreamsPred(prefix, bucket, rsrc, ssrc, seed, base, nil, nil)
}

// hashJoinStreamsPred is hashJoinStreams with selection predicates applied
// to the first level's scans (relation scans; overflow files are already
// filtered).
func (rc *runCtx) hashJoinStreamsPred(prefix string, bucket int, rsrc, ssrc []fileAt, seed uint64, base int,
	rPred, sPred pred.Pred) error {
	level := 0
	prevR := int64(-1)
	for len(rsrc) > 0 {
		if level > 64 {
			return fmt.Errorf("core: %s: overflow recursion exceeded 64 levels; memory too small", prefix)
		}
		// When an overflow partition stops shrinking — every tuple of a
		// value that exceeds site memory shares one hash, so no cutoff
		// can split it — rehashing cannot help. Fall back to a chunked
		// block join of the stuck partitions, which always terminates.
		if cur := totalTuples(rsrc); cur == prevR && level > 0 {
			blockName := fmt.Sprintf("%s block join L%d", prefix, level+base)
			return rc.runUnit(func() error {
				return rc.blockJoinLevel(blockName, bucket, rsrc, ssrc)
			})
		} else {
			prevR = cur
		}
		name := prefix
		if level+base > 0 {
			name = fmt.Sprintf("%s overflow L%d", prefix, level+base)
		}
		var rp, sp pred.Pred
		if level == 0 {
			rp, sp = rPred, sPred
		}
		// Each level is one redo-able unit: joinLevel recreates its hash
		// tables, filters, and (freshly named) overflow temp files per call,
		// and its inputs — base fragments or the previous level's flushed
		// overflow files — are durable, so a failover re-runs just this
		// build/probe pair.
		var rover, sover []fileAt
		err := rc.runUnit(func() error {
			var lerr error
			rover, sover, lerr = rc.joinLevel(name, bucket, rsrc, ssrc, seed+uint64(level), rp, sp)
			return lerr
		})
		if err != nil {
			return err
		}
		if len(rover) > 0 && level+base+1 > rc.overflowLevels {
			rc.overflowLevels = level + base + 1
		}
		rsrc, ssrc = rover, sover
		level++
	}
	return nil
}

func totalTuples(src []fileAt) int64 {
	var n int64
	for _, f := range src {
		n += f.f.Len()
	}
	return n
}

// blockJoinLevel joins stuck overflow partitions with a chunked block
// hash join at the sites holding them: the inner file is loaded one
// memory-sized chunk at a time and the entire local outer file is rescanned
// against each chunk. Inner and outer overflow files with the same index
// were routed by the same hash and cutoff, so pairing them site by site is
// exhaustive and exact.
func (rc *runCtx) blockJoinLevel(name string, bucket int, rsrc, ssrc []fileAt) error {
	// Pair outer sources with inner sources by file order: joinLevel
	// emits them in matching join-site order; unmatched outer files have
	// no inner partner and produce nothing.
	ps := phaseSpec{
		name:      name,
		ops:       opLabels{produce: "block join", consume: "store"},
		bucket:    bucket,
		hasBucket: bucket >= 0,
		produce:   map[int][]producerFn{},
		consume:   map[int]consumerFn{},
	}
	for i, rf := range rsrc {
		if i >= len(ssrc) {
			break
		}
		rfile, sfile := rf.f, ssrc[i].f
		site := rf.site
		ps.produce[site] = append(ps.produce[site], func(a *cost.Acct, snd *netsim.Sender) {
			em := rc.newEmitter(site, snd)
			defer em.close()
			chunkCap := int(rc.tableCap() / tuple.Bytes)
			if chunkCap < 1 {
				chunkCap = 1
			}
			// One match callback for the whole chunk loop, and one
			// one-element probe run reused for every scanned outer tuple,
			// so nothing is allocated per tuple.
			var tbl *gamma.HashTable
			onMatch := func(outer, match *tuple.Tuple) { em.emit(a, match, outer) }
			outer := make([]*tuple.Tuple, 1)
			hash := make([]uint64, 1)
			cur := rfile.NewCursor(a)
			for {
				tbl = gamma.NewHashTable(rc.m, int64(chunkCap+1)*tuple.Bytes, rc.spec.RAttr)
				n := 0
				for n < chunkCap {
					t, ok := cur.Next()
					if !ok {
						break
					}
					a.AddCPU(rc.m.Hash)
					tbl.Insert(a, t, split.Hash(t.Int(rc.spec.RAttr), 0))
					n++
				}
				if n == 0 {
					tbl.Release()
					return
				}
				sfile.Scan(a, func(t *tuple.Tuple) bool {
					a.AddCPU(rc.m.Hash)
					outer[0], hash[0] = t, split.Hash(t.Int(rc.spec.SAttr), 0)
					tbl.ProbeBatch(a, outer, hash, rc.spec.SAttr, onMatch)
					return true
				})
				// The chunk's probes are done and em.emit keeps no reference
				// to a match, so the chunk table can be recycled.
				tbl.Release()
				if n < chunkCap {
					return
				}
			}
		})
	}
	for _, ds := range rc.diskSites {
		ds := ds
		ps.consume[ds] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			rc.storeWriter(ds, a, batches)
		}
	}
	return rc.runPhase(ps)
}

// joinLevel runs one build+probe pass over the given source files and
// returns the overflow files feeding the next level (empty when the inner
// fit in memory everywhere).
func (rc *runCtx) joinLevel(name string, bucket int, rsrc, ssrc []fileAt, seed uint64, rPred, sPred pred.Pred) (rover, sover []fileAt, err error) {
	jt := &split.JoinTable{Sites: rc.joinSites}

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
		if roverF[j], err = rc.newTempFile(name+".rover", home); err != nil {
			return nil, nil, err
		}
		if soverF[j], err = rc.newTempFile(name+".sover", home); err != nil {
			return nil, nil, err
		}
	}

	// ---- build phase: redistribute the inner source files ----
	build := phaseSpec{
		name:      name + " build",
		end:       gamma.EndOpts{SplitEntries: jt.Entries()},
		ops:       opLabels{produce: "scan", consume: "build", write: "overflow write"},
		bucket:    bucket,
		hasBucket: bucket >= 0,
		produce:   map[int][]producerFn{},
		consume:   map[int]consumerFn{},
		write:     map[int]writerFn{},
	}
	for _, src := range rsrc {
		f := src.f
		build.produce[src.site] = append(build.produce[src.site], func(a *cost.Acct, snd *netsim.Sender) {
			f.Scan(a, func(t *tuple.Tuple) bool {
				if !rc.scanPred(a, rPred, t) {
					return true
				}
				a.AddCPU(rc.m.Hash)
				h := split.Hash(t.Int(rc.spec.RAttr), seed)
				snd.Send(jt.Lookup(h), tagProbe, t, h)
				return true
			})
		})
	}
	for _, j := range rc.joinSites {
		j := j
		build.consume[j] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
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
						// The filter covers every inner tuple of this
						// level, including overflow-bound ones, so
						// dropping outer misses is always safe.
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
	}
	rc.addOverflowWriters(build.write, roverF, tagROverBase)
	if err := rc.runPhase(build); err != nil {
		return nil, nil, err
	}

	// Cutoffs are published to the scheduler at the phase barrier and
	// embedded in the split table used for the outer relation (the h'
	// functions of Section 3.2). Dense site-indexed storage keeps the
	// per-tuple lookup in the probe scan a bounds check, not a map probe.
	cutoffs := make([]uint64, len(rc.c.Sites))
	for _, j := range rc.joinSites {
		cutoffs[j] = tables[j].Cutoff()
	}

	// ---- probe phase: redistribute the outer source files ----
	probe := phaseSpec{
		name:      name + " probe",
		end:       gamma.EndOpts{SplitEntries: jt.Entries()},
		ops:       opLabels{produce: "scan", consume: "probe", write: "store"},
		bucket:    bucket,
		hasBucket: bucket >= 0,
		produce:   map[int][]producerFn{},
		consume:   map[int]consumerFn{},
		write:     map[int]writerFn{},
	}
	for _, src := range ssrc {
		f := src.f
		probe.produce[src.site] = append(probe.produce[src.site], func(a *cost.Acct, snd *netsim.Sender) {
			if filters != nil {
				// Receive the shared filter packet from the join sites.
				a.AddCPU(rc.m.PacketProto)
			}
			f.Scan(a, func(t *tuple.Tuple) bool {
				if !rc.scanPred(a, sPred, t) {
					return true
				}
				a.AddCPU(rc.m.Hash)
				h := split.Hash(t.Int(rc.spec.SAttr), seed)
				j := jt.Lookup(h)
				if filters != nil {
					a.AddCPU(rc.m.FilterBit)
					if !filters[j].Test(h) {
						rc.filterDropped.Add(1)
						return true
					}
				}
				if gamma.AboveCutoff(cutoffs[j], h) {
					rc.mSOver.Add(1)
					snd.Send(rc.c.OverflowDiskSite(j), tagSOverBase+j, t, h)
					return true
				}
				snd.Send(j, tagProbe, t, h)
				return true
			})
		})
	}
	for _, j := range rc.joinSites {
		j := j
		probe.consume[j] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
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
	}
	rc.addFileAppendConsumers(probe.consume, soverF, tagSOverBase)
	for _, ds := range rc.diskSites {
		ds := ds
		probe.write[ds] = func(a *cost.Acct, batches []*netsim.Batch) {
			rc.storeWriter(ds, a, batches)
		}
	}
	if err := rc.runPhase(probe); err != nil {
		return nil, nil, err
	}
	// Both phases have reached their barriers, so no worker can still hold a
	// pointer into the tables; recycle their arrays for the next level. On
	// the error paths above the redo machinery rebuilds fresh tables and the
	// old ones are left to the garbage collector.
	for _, j := range rc.joinSites {
		tables[j].Release()
	}

	// Keep rover[i] and sover[i] paired by join site (an S overflow can
	// only exist where an R overflow activated the cutoff, so pairing on
	// the inner file covers everything); blockJoinLevel relies on this
	// alignment.
	for _, j := range rc.joinSites {
		if roverF[j].Len() > 0 {
			home := rc.c.OverflowDiskSite(j)
			rover = append(rover, fileAt{site: home, f: roverF[j]})
			sover = append(sover, fileAt{site: home, f: soverF[j]})
		}
	}
	return rover, sover, nil
}

// addOverflowWriters installs one writer per disk site that appends batches
// tagged tagBase+joinSite to that join site's overflow file. Used for inner
// relation evictions, which are emitted by the build consumers into the
// phase's second exchange.
func (rc *runCtx) addOverflowWriters(write map[int]writerFn, files map[int]*wiss.File, tagBase int) {
	byHome := rc.overflowHomes()
	for _, ds := range rc.diskSites {
		ds := ds
		homed := byHome[ds]
		if len(homed) == 0 {
			continue
		}
		write[ds] = func(a *cost.Acct, batches []*netsim.Batch) {
			for _, b := range batches {
				files[b.Tag-tagBase].AppendBatch(a, b.Tuples)
			}
			for _, j := range homed {
				files[j].Flush(a)
			}
		}
	}
}

// overflowHomes groups join sites by the disk site hosting their overflow
// files, in deterministic join-site order.
func (rc *runCtx) overflowHomes() map[int][]int {
	byHome := make(map[int][]int)
	for _, j := range rc.joinSites {
		home := rc.c.OverflowDiskSite(j)
		byHome[home] = append(byHome[home], j)
	}
	return byHome
}

// addFileAppendConsumers extends (or installs) stage-1 consumers at the
// disk sites so batches tagged tagBase+joinSite — sent straight from the
// producing sites — are appended to the corresponding overflow file. A site
// that already has a consumer (a join site in the local configuration)
// dispatches on the tag.
func (rc *runCtx) addFileAppendConsumers(consume map[int]consumerFn, files map[int]*wiss.File, tagBase int) {
	byHome := rc.overflowHomes()
	for _, ds := range rc.diskSites {
		homed := byHome[ds]
		if len(homed) == 0 {
			continue
		}
		prev := consume[ds]
		ds := ds
		consume[ds] = func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			for _, b := range batches {
				if b.Tag < tagBase || b.Tag >= tagBase+len(rc.c.Sites) {
					continue
				}
				files[b.Tag-tagBase].AppendBatch(a, b.Tuples)
			}
			for _, j := range homed {
				files[j].Flush(a)
			}
			if prev != nil {
				prev(a, snd, batches)
			}
		}
	}
}
