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

// hashJoin joins a set of inner-relation source files against a set of
// outer-relation source files by redistributing them through the joining
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
// for un-bucketed joins). The selection predicates apply to the first
// level's scans only (relation scans; overflow files are already filtered).
func (rc *runCtx) hashJoin(prefix string, bucket int, rsrc, ssrc []fileAt, seed uint64, base int,
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
	ps := newPhase(name, opLabels{produce: "block join", consume: "store"}, bucket)
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
	js, err := rc.newJoinSet(name)
	if err != nil {
		return nil, nil, err
	}

	// ---- build phase: redistribute the inner source files ----
	build := newPhase(name+" build", opLabels{produce: "scan", consume: "build", write: "overflow write"}, bucket)
	build.end = gamma.EndOpts{SplitEntries: jt.Entries()}
	rc.scanRoute(build.produce, rsrc, rc.spec.RAttr, rPred, seed, false, func(_ *cost.Acct, h uint64) (int, int) {
		return jt.Lookup(h), tagProbe
	})
	rc.wireBuild(&build, js)
	if err := rc.runPhase(build); err != nil {
		return nil, nil, err
	}
	js.publishCutoffs()

	// ---- probe phase: redistribute the outer source files ----
	probe := newPhase(name+" probe", opLabels{produce: "scan", consume: "probe", write: "store"}, bucket)
	probe.end = gamma.EndOpts{SplitEntries: jt.Entries()}
	rc.scanRoute(probe.produce, ssrc, rc.spec.SAttr, sPred, seed, js.filters != nil,
		func(a *cost.Acct, h uint64) (int, int) { return rc.probeDest(js, a, jt.Lookup(h), h) })
	rc.wireProbe(&probe, js)
	if err := rc.runPhase(probe); err != nil {
		return nil, nil, err
	}
	js.release()
	rover, sover = js.overflowSources(rc, js.sites)
	return rover, sover, nil
}

// newPhase starts a phaseSpec with empty role maps. bucket is the 0-based
// bucket the phase joins, or -1 when it joins none.
func newPhase(name string, ops opLabels, bucket int) phaseSpec {
	return phaseSpec{
		name:      name,
		ops:       ops,
		bucket:    bucket,
		hasBucket: bucket >= 0,
		produce:   map[int][]producerFn{},
		consume:   map[int]consumerFn{},
		write:     map[int]writerFn{},
	}
}

// relSources lists a base relation's fragments in site order.
func relSources(rel *gamma.Relation) []fileAt {
	src := make([]fileAt, 0, len(rel.Fragments))
	for _, s := range rel.FragmentSites() {
		src = append(src, fileAt{site: s, f: rel.Fragments[s]})
	}
	return src
}

// relSide returns the scan inputs of the inner (R) or outer (S) relation.
func (rc *runCtx) relSide(inner bool) (src []fileAt, attr int, p pred.Pred) {
	if inner {
		return relSources(rc.spec.R), rc.spec.RAttr, rc.spec.RPred
	}
	return relSources(rc.spec.S), rc.spec.SAttr, rc.spec.SPred
}

// routeFn picks the destination site and stream tag for a scanned tuple
// from its routing hash; a negative site drops the tuple.
type routeFn func(a *cost.Acct, h uint64) (dst, tag int)

// scanRoute adds one producer per source file: it scans the file, applies
// the selection predicate, hashes the join attribute with seed and sends
// each surviving tuple where route says. Every hash-join scan — forming,
// partitioning, build, probe, sort-merge redistribution, resurrection —
// is this loop. filterPacket producers first receive the join sites'
// shared bit-filter packet.
func (rc *runCtx) scanRoute(produce map[int][]producerFn, src []fileAt, attr int, p pred.Pred, seed uint64,
	filterPacket bool, route routeFn) {
	for _, s := range src {
		f := s.f
		produce[s.site] = append(produce[s.site], func(a *cost.Acct, snd *netsim.Sender) {
			if filterPacket {
				a.AddCPU(rc.m.PacketProto)
			}
			f.Scan(a, func(t *tuple.Tuple) bool {
				if !rc.scanPred(a, p, t) {
					return true
				}
				a.AddCPU(rc.m.Hash)
				h := split.Hash(t.Int(attr), seed)
				if dst, tag := route(a, h); dst >= 0 {
					snd.Send(dst, tag, t, h)
				}
				return true
			})
		})
	}
}

// joinSet is one build/probe pass's state at the join sites, indexed by
// site: a memory-limited hash table, an optional bit filter, and the R and
// S overflow files at the site's overflow disk, plus the cutoffs the build
// barrier publishes to the probe's split table.
type joinSet struct {
	sites        []int
	tables       []*gamma.HashTable
	filters      []*bitfilter.Filter // nil without BitFilter
	rover, sover []*wiss.File
	cutoffs      []uint64 // nil before publishCutoffs
}

// newJoinSet builds a join set over the current join sites; its overflow
// temp files are named name.rover and name.sover.
func (rc *runCtx) newJoinSet(name string) (*joinSet, error) {
	n := len(rc.c.Sites)
	js := &joinSet{
		sites:   rc.joinSites,
		tables:  make([]*gamma.HashTable, n),
		filters: rc.siteFilters(),
		rover:   make([]*wiss.File, n),
		sover:   make([]*wiss.File, n),
	}
	var err error
	for _, j := range rc.joinSites {
		js.tables[j] = gamma.NewHashTable(rc.m, rc.tableCap(), rc.spec.RAttr)
		home := rc.c.OverflowDiskSite(j)
		if js.rover[j], err = rc.newTempFile(name+".rover", home); err != nil {
			return nil, err
		}
		if js.sover[j], err = rc.newTempFile(name+".sover", home); err != nil {
			return nil, err
		}
	}
	return js, nil
}

// siteFilters builds one bit filter per join site, or nil without
// BitFilter.
func (rc *runCtx) siteFilters() []*bitfilter.Filter {
	if !rc.spec.BitFilter {
		return nil
	}
	filters := make([]*bitfilter.Filter, len(rc.c.Sites))
	for _, j := range rc.joinSites {
		filters[j] = bitfilter.New(rc.filterBits)
	}
	return filters
}

// publishCutoffs records the build's cutoffs in dense site-indexed storage,
// so the per-tuple lookup in the probe scan is a bounds check, not a map
// probe (the h' functions of Section 3.2).
func (js *joinSet) publishCutoffs() {
	js.cutoffs = make([]uint64, len(js.tables))
	for _, j := range js.sites {
		js.cutoffs[j] = js.tables[j].Cutoff()
	}
}

// release recycles the hash-table arrays once the probe barrier has passed:
// no worker can still hold a pointer into them. On error paths the redo
// machinery rebuilds fresh tables and the old ones are left to the garbage
// collector.
func (js *joinSet) release() {
	for _, j := range js.sites {
		js.tables[j].Release()
	}
}

// overflowSources pairs each non-empty R-overflow file with its site's
// S-overflow file, visiting join sites in the given order. An S overflow
// can only exist where an R overflow activated the cutoff, so pairing on
// the inner file covers everything; blockJoinLevel relies on rover[i] and
// sover[i] sharing a join site.
func (js *joinSet) overflowSources(rc *runCtx, sites []int) (rover, sover []fileAt) {
	for _, j := range sites {
		if js.rover[j].Len() > 0 {
			home := rc.c.OverflowDiskSite(j)
			rover = append(rover, fileAt{site: home, f: js.rover[j]})
			sover = append(sover, fileAt{site: home, f: js.sover[j]})
		}
	}
	return rover, sover
}

// filterSet adds an inner tuple's hash to join site j's bit filter, if any.
func (rc *runCtx) filterSet(filters []*bitfilter.Filter, a *cost.Acct, j int, h uint64) {
	if filters != nil {
		a.AddCPU(rc.m.FilterBit)
		filters[j].Set(h)
	}
}

// filterPass tests an outer tuple's hash against join site j's bit filter,
// counting a miss as dropped; without filters every tuple passes for free.
func (rc *runCtx) filterPass(filters []*bitfilter.Filter, a *cost.Acct, j int, h uint64) bool {
	if filters == nil {
		return true
	}
	a.AddCPU(rc.m.FilterBit)
	if filters[j].Test(h) {
		return true
	}
	rc.filterDropped.Add(1)
	return false
}

// probeDest routes an outer tuple bound for join site j: a bit-filter miss
// drops it, a hash above j's published cutoff diverts it to j's S-overflow
// file, and everything else goes to j's probe. A join set without cutoffs
// (dynamic Hybrid's resident partitions) never diverts.
func (rc *runCtx) probeDest(js *joinSet, a *cost.Acct, j int, h uint64) (int, int) {
	if !rc.filterPass(js.filters, a, j, h) {
		return -1, 0
	}
	if js.cutoffs != nil && gamma.AboveCutoff(js.cutoffs[j], h) {
		rc.mSOver.Add(1)
		return rc.c.OverflowDiskSite(j), tagSOverBase + j
	}
	return j, tagProbe
}

// buildConsumer inserts the inner tuples arriving at join site j into its
// hash table. Tuples above the cutoff, and tuples a clearing pass evicts,
// are demoted to j's R-overflow file through the phase's second exchange.
func (rc *runCtx) buildConsumer(js *joinSet, j int) consumerFn {
	return func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
		tbl := js.tables[j]
		home := rc.c.OverflowDiskSite(j)
		for _, b := range batches {
			if b.Tag != tagProbe {
				continue
			}
			for i := range b.Tuples {
				h := b.Hashes[i]
				// The filter covers every inner tuple of this level,
				// including overflow-bound ones, so dropping outer misses
				// is always safe.
				rc.filterSet(js.filters, a, j, h)
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

// probeConsumer probes join site j's hash table with the outer tuples
// arriving there and emits the matches to the result store.
func (rc *runCtx) probeConsumer(js *joinSet, j int) consumerFn {
	return func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
		tbl := js.tables[j]
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

// wireBuild adds the join set's build consumers to ps, each running before
// any consumer already at its site, and the second-stage writers that
// append demoted inner tuples to the R-overflow files.
func (rc *runCtx) wireBuild(ps *phaseSpec, js *joinSet) {
	for _, j := range js.sites {
		ps.consume[j] = chain(rc.buildConsumer(js, j), ps.consume[j])
	}
	rc.addSinkWriters(ps.write, rc.homedSinks(tagROverBase, js.rover, js.sites, rc.c.OverflowDiskSite, false))
}

// wireProbe adds the join set's probe consumers to ps, each running before
// any consumer already at its site; then, in front of everything at each
// overflow disk, the appends of the S-overflow tuples the producers divert
// there; and the result-store writers.
func (rc *runCtx) wireProbe(ps *phaseSpec, js *joinSet) {
	for _, j := range js.sites {
		ps.consume[j] = chain(rc.probeConsumer(js, j), ps.consume[j])
	}
	rc.addSinkConsumers(ps.consume, rc.homedSinks(tagSOverBase, js.sover, js.sites, rc.c.OverflowDiskSite, false))
	rc.addStoreWriters(ps.write)
}

// addStoreWriters installs the result-store writer at every disk site.
func (rc *runCtx) addStoreWriters(write map[int]writerFn) {
	for _, ds := range rc.diskSites {
		ds := ds
		write[ds] = func(a *cost.Acct, batches []*netsim.Batch) {
			rc.storeWriter(ds, a, batches)
		}
	}
}

// chain runs first and then second on the same batches, for a site playing
// two roles in one phase. The order matters: a disk charges a file switch
// whenever an access targets a different file than the disk's last one, so
// each site's sequence of appends and flushes is part of the cost.
func chain(first, second consumerFn) consumerFn {
	if second == nil {
		return first
	}
	return func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
		first(a, snd, batches)
		second(a, snd, batches)
	}
}

// fileSink appends tagged batches to temp files at one site — bucket
// fragments, overflow files, dynamic-Hybrid partitions, sort-merge runs.
// A batch tagged base+i appends to slots[i]; any other tag belongs to
// another role at the site and is skipped. After the appends every file in
// flush is flushed, in order (nil entries are skipped, so a sink may flush
// its own slots).
type fileSink struct {
	base  int
	slots []*wiss.File
	flush []*wiss.File
	// forming counts appended batches as forming-phase traffic (the
	// paper's Table 2 local-write fraction).
	forming bool
	// filters, when set, holds a bit filter per slot: the inner relation
	// builds it (building) and the outer tests against it, dropping misses
	// before the disk write.
	filters  []*bitfilter.Filter
	building bool
}

// sink runs s over one delivery of batches.
func (rc *runCtx) sink(a *cost.Acct, s *fileSink, batches []*netsim.Batch) {
	for _, b := range batches {
		i := b.Tag - s.base
		if i < 0 || i >= len(s.slots) || s.slots[i] == nil {
			continue
		}
		f := s.slots[i]
		var flt *bitfilter.Filter
		if s.filters != nil {
			flt = s.filters[i]
		}
		if flt == nil {
			f.AppendBatch(a, b.Tuples)
		} else {
			for k := range b.Tuples {
				a.AddCPU(rc.m.FilterBit)
				if s.building {
					flt.Set(b.Hashes[k])
				} else if !flt.Test(b.Hashes[k]) {
					rc.filterDropped.Add(1)
					continue
				}
				f.Append(a, b.Tuples[k])
			}
		}
		if s.forming {
			if b.Local {
				rc.mFormLocal.Add(int64(len(b.Tuples)))
			} else {
				rc.mFormRemote.Add(int64(len(b.Tuples)))
			}
		}
	}
	for _, f := range s.flush {
		if f != nil {
			f.Flush(a)
		}
	}
}

// sinkConsumer runs s as a first-stage consumer.
func (rc *runCtx) sinkConsumer(s *fileSink) consumerFn {
	return func(a *cost.Acct, _ *netsim.Sender, batches []*netsim.Batch) { rc.sink(a, s, batches) }
}

// homedSinks builds one sink per disk site that homes at least one of the
// files: file key k (tag base+k) lives at home(k). Every sink shares the
// slots and flushes only its own files, in keys order.
func (rc *runCtx) homedSinks(base int, files []*wiss.File, keys []int, home func(int) int, forming bool) map[int]*fileSink {
	sinks := make(map[int]*fileSink)
	backing := make([]fileSink, 0, len(keys)) // one allocation for every sink
	for _, k := range keys {
		h := home(k)
		if sinks[h] == nil {
			backing = append(backing, fileSink{base: base, slots: files, forming: forming})
			sinks[h] = &backing[len(backing)-1]
		}
		sinks[h].flush = append(sinks[h].flush, files[k])
	}
	return sinks
}

// addSinkConsumers puts each site's sink in front of the consumer the site
// already runs, if any (a local join site's build or probe).
func (rc *runCtx) addSinkConsumers(consume map[int]consumerFn, sinks map[int]*fileSink) {
	for _, site := range sortedKeys(sinks) {
		consume[site] = chain(rc.sinkConsumer(sinks[site]), consume[site])
	}
}

// addSinkWriters installs each site's sink as its second-stage writer.
func (rc *runCtx) addSinkWriters(write map[int]writerFn, sinks map[int]*fileSink) {
	for _, site := range sortedKeys(sinks) {
		s := sinks[site]
		write[site] = func(a *cost.Acct, batches []*netsim.Batch) { rc.sink(a, s, batches) }
	}
}
