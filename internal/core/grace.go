package core

import (
	"fmt"
	"sort"

	"gammajoin/internal/bitfilter"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
)

// tuneFactor is how many times more buckets than optimal Grace bucket
// tuning forms.
const tuneFactor = 3

// runGrace executes the parallel Grace hash-join (Section 3.3): both
// relations are first partitioned into N disk buckets — each bucket itself
// horizontally partitioned across every disk site via the partitioning
// split table — and the buckets are then joined consecutively through the
// joining split table.
func (rc *runCtx) runGrace() error {
	nb := rc.buckets
	pt, err := split.NewGrace(nb, rc.diskSites)
	if err != nil {
		return err
	}

	rb, err := rc.makeBucketFiles("grace.r", 0, nb)
	if err != nil {
		return err
	}
	sb, err := rc.makeBucketFiles("grace.s", 0, nb)
	if err != nil {
		return err
	}
	ff := rc.makeFormingFilters(0, nb)

	// Each forming pass is one redo-able unit: a crash fires at phase
	// entry, so the bucket files have no partial appends and re-running
	// the pass from the (durable, mirror-covered) base fragments is exact.
	// The forming filters and split table survive a failover — Gamma ships
	// them in scheduler control packets, so they are not lost with a site.
	if err := rc.runUnit(func() error {
		return rc.partitionPhase(newPhase("form R", formOps, -1), true, pt, rb, ff, nil)
	}); err != nil {
		return err
	}
	if err := rc.runUnit(func() error {
		return rc.partitionPhase(newPhase("form S", formOps, -1), false, pt, sb, ff, nil)
	}); err != nil {
		return err
	}

	for _, group := range rc.bucketGroups(rb, nb) {
		var rsrc, ssrc []fileAt
		for _, b := range group {
			rsrc = append(rsrc, rc.bucketSources(rb, b)...)
			ssrc = append(ssrc, rc.bucketSources(sb, b)...)
		}
		if err := rc.hashJoin(groupLabel("bucket", group), group[0], rsrc, ssrc, 0, 0, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// bucketGroups returns the joining order of buckets: one bucket per group
// normally; with bucket tuning, buckets are first-fit-decreasing packed
// into join groups using their *measured per-site loads*, so that no
// joining site's share of a group exceeds its hash-table capacity even
// under skew — the point of tuning.
func (rc *runCtx) bucketGroups(rb []map[int]*wiss.File, nb int) [][]int {
	if !rc.spec.BucketTuning {
		groups := make([][]int, nb)
		for b := range groups {
			groups[b] = []int{b}
		}
		return groups
	}
	// Per-bucket load vector: tuples destined for each joining site
	// under the joining split table. Fragments map 1:1 onto joining
	// split-table indices (Section 4.1), so the fragment sizes are the
	// per-join-process loads when disks and join nodes are matched;
	// otherwise fall back to assuming even spread.
	nj := len(rc.joinSites)
	capPerSite := rc.tableCap() / tuple.Bytes
	vec := make([][]int64, nb)
	total := make([]int64, nb)
	for b := 0; b < nb; b++ {
		vec[b] = make([]int64, nj)
		for i, ds := range rc.diskSites {
			n := rb[b][ds].Len()
			total[b] += n
			if len(rc.diskSites) == nj {
				vec[b][i%nj] += n
			}
		}
		if len(rc.diskSites) != nj {
			for j := range vec[b] {
				vec[b][j] = (total[b] + int64(nj) - 1) / int64(nj)
			}
		}
	}
	order := make([]int, nb)
	for b := range order {
		order[b] = b
	}
	sort.SliceStable(order, func(i, j int) bool { return total[order[i]] > total[order[j]] })

	var groups [][]int
	var loads [][]int64
	fits := func(g int, b int) bool {
		for j := 0; j < nj; j++ {
			if loads[g][j]+vec[b][j] > capPerSite {
				return false
			}
		}
		return true
	}
	for _, b := range order {
		placed := false
		for g := range groups {
			if fits(g, b) {
				groups[g] = append(groups[g], b)
				for j := 0; j < nj; j++ {
					loads[g][j] += vec[b][j]
				}
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{b})
			l := make([]int64, nj)
			copy(l, vec[b])
			loads = append(loads, l)
		}
	}
	// Deterministic bucket order within each group.
	for g := range groups {
		sort.Ints(groups[g])
	}
	return groups
}

// groupLabel names a join group's phases after its members, 1-based:
// "bucket 3" or "partition 2+5+7".
func groupLabel(kind string, group []int) string {
	label := fmt.Sprintf("%s %d", kind, group[0]+1)
	for _, id := range group[1:] {
		label += fmt.Sprintf("+%d", id+1)
	}
	return label
}

// makeFormingFilters builds one bit filter per (bucket, disk site) for the
// FilterForming extension, or nil when it is disabled.
func (rc *runCtx) makeFormingFilters(first, n int) []map[int]*bitfilter.Filter {
	if !rc.spec.BitFilter || !rc.spec.FilterForming {
		return nil
	}
	ff := make([]map[int]*bitfilter.Filter, n)
	for b := first; b < n; b++ {
		ff[b] = make(map[int]*bitfilter.Filter, len(rc.diskSites))
		for _, ds := range rc.diskSites {
			ff[b][ds] = bitfilter.New(rc.filterBits)
		}
	}
	return ff
}

// makeBucketFiles creates one temporary bucket-fragment file per (bucket,
// disk site) for buckets in [first, n).
func (rc *runCtx) makeBucketFiles(name string, first, n int) ([]map[int]*wiss.File, error) {
	files := make([]map[int]*wiss.File, n)
	for b := first; b < n; b++ {
		files[b] = make(map[int]*wiss.File, len(rc.diskSites))
		for _, ds := range rc.diskSites {
			f, err := rc.newTempFile(fmt.Sprintf("%s.b%d", name, b), ds)
			if err != nil {
				return nil, err
			}
			files[b][ds] = f
		}
	}
	return files, nil
}

// bucketSources lists the non-empty fragments of one bucket.
func (rc *runCtx) bucketSources(files []map[int]*wiss.File, b int) []fileAt {
	var src []fileAt
	for _, ds := range rc.diskSites {
		if f := files[b][ds]; f.Len() > 0 {
			src = append(src, fileAt{site: ds, f: f})
		}
	}
	return src
}

// formOps labels Grace's bucket-forming passes.
var formOps = opLabels{produce: "scan", consume: "bucket write"}

// partitionPhase redistributes the inner (R) or outer (S) relation through
// a partitioning split table into bucket files: Grace's forming passes,
// and Hybrid's overlapped passes when a join set holds bucket 1 (bucket 0
// of the split table) in memory — the inner pass builds its hash tables,
// the outer pass probes them on the fly. ps carries the caller's name, op
// labels and bucket. Forming filters, when supplied, are built from the
// inner relation and applied to the outer, dropping non-joining tuples
// before the disk write.
func (rc *runCtx) partitionPhase(ps phaseSpec, inner bool, pt *split.PartTable, buckets []map[int]*wiss.File,
	formFilters []map[int]*bitfilter.Filter, js *joinSet) error {
	ps.end = gamma.EndOpts{SplitEntries: pt.Entries()}
	src, attr, p := rc.relSide(inner)
	rc.scanRoute(ps.produce, src, attr, p, 0, js != nil && !inner && js.filters != nil,
		func(a *cost.Acct, h uint64) (int, int) {
			b, dst := pt.Lookup(h)
			switch {
			case b != 0 || js == nil:
				return dst, b
			case inner:
				return dst, tagProbe
			default:
				return rc.probeDest(js, a, dst, h)
			}
		})
	// Every disk site appends the bucket tuples it receives to its bucket
	// fragments; a join site that is also a disk site joins first. The
	// sinks share backing arrays, so a phase allocates them once.
	nb := len(buckets)
	sinks := make([]fileSink, len(rc.diskSites))
	slots := make([]*wiss.File, len(sinks)*nb)
	var filters []*bitfilter.Filter
	if formFilters != nil {
		filters = make([]*bitfilter.Filter, len(slots))
	}
	for i, ds := range rc.diskSites {
		s := &sinks[i]
		s.slots = slots[i*nb : (i+1)*nb : (i+1)*nb]
		s.flush, s.forming, s.building = s.slots, true, inner
		for b, frags := range buckets {
			if frags != nil { // nil is the resident bucket
				s.slots[b] = frags[ds]
			}
		}
		if filters != nil {
			s.filters = filters[i*nb : (i+1)*nb : (i+1)*nb]
			for b, ff := range formFilters {
				s.filters[b] = ff[ds]
			}
		}
		ps.consume[ds] = rc.sinkConsumer(s)
	}
	switch {
	case js == nil:
	case inner:
		rc.wireBuild(&ps, js)
	default:
		rc.wireProbe(&ps, js)
	}
	return rc.runPhase(ps)
}
