package gamma

import (
	"math"
	"sync"

	"gammajoin/internal/cost"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

// OverflowKey maps a routing hash into the full 64-bit space over which the
// overflow histogram and cutoffs are defined. Routing hashes may be dense
// small integers (the system hash function is the identity on benchmark
// keys), so the histogram remixes them to spread the 256 ranges; equal join
// values always produce equal overflow keys, which keeps the inner and outer
// overflow partitions consistent.
func OverflowKey(h uint64) uint64 { return xrand.Mix64(h ^ 0x5CA1AB1E0FF10AD) }

// AboveCutoff reports whether a tuple with routing hash h belongs to the
// overflow partition under the given cutoff.
func AboveCutoff(cutoff, h uint64) bool { return OverflowKey(h) >= cutoff }

// HashTable is the memory-limited in-memory join hash table used by the
// Simple, Grace, and Hybrid algorithms, including the paper's overflow
// machinery (Section 4.1, "Grace and Hybrid Performance over Intermediate
// points"):
//
//   - a histogram over ranges of hash values is maintained as tuples are
//     inserted;
//   - when capacity is exceeded, a cutoff hash value is chosen from the
//     histogram so that clearing all tuples at or above it frees about 10%
//     of the table, and those tuples are evicted to an overflow file;
//   - subsequently arriving tuples at or above the cutoff bypass the table
//     entirely and are sent straight to the overflow file.
type HashTable struct {
	model    *cost.Model
	capBytes int64
	attr     int

	heads   []int32
	entries []htEntry
	hist    [256]int32 // live tuples per top-byte hash range

	cutoff    uint64 // tuples with h >= cutoff overflow; starts at max
	overflows int    // number of clearing passes performed

	probes      int64
	chainVisits int64
}

type htEntry struct {
	h    uint64 // routing hash (chains)
	key  uint64 // overflow key (histogram/cutoff)
	next int32
	t    tuple.Tuple
}

// headsPool and entriesPool recycle the table's two backing arrays across
// join levels: a table's entry array is multi-megabyte at benchmark
// capacities and each overflow level (and each dynamic-Hybrid partition)
// would otherwise allocate a fresh one. Only Release hands arrays back, and
// only callers that provably hold the last reference call it.
var (
	headsPool   = sync.Pool{New: func() any { return []int32(nil) }}
	entriesPool = sync.Pool{New: func() any { return []htEntry(nil) }}
)

// NewHashTable creates a table holding at most capBytes of tuples, keyed on
// integer attribute attr.
func NewHashTable(m *cost.Model, capBytes int64, attr int) *HashTable {
	nb := int(capBytes / tuple.Bytes)
	if nb < 16 {
		nb = 16
	}
	heads := headsPool.Get().([]int32)
	if cap(heads) < nb {
		heads = make([]int32, nb)
	} else {
		heads = heads[:nb]
		for i := range heads {
			heads[i] = 0
		}
	}
	// Pre-size the entry array toward the table's stated capacity so builds
	// do not pay repeated append-grow copies of multi-megabyte entry arrays
	// (a pure wall-clock cost; the simulated Insert charge is per tuple
	// either way). The cap bounds the up-front allocation for callers that
	// state generous capacities they rarely fill (the dynamic Hybrid's
	// per-partition tables).
	prealloc := nb
	if prealloc > 8192 {
		prealloc = 8192
	}
	entries := entriesPool.Get().([]htEntry)
	if cap(entries) < prealloc {
		entries = make([]htEntry, 0, prealloc)
	} else {
		entries = entries[:0]
	}
	return &HashTable{
		model:    m,
		capBytes: capBytes,
		attr:     attr,
		heads:    heads,
		entries:  entries,
		cutoff:   math.MaxUint64,
	}
}

// Release returns the table's backing arrays to the package pools and empties
// the table. Only call it when no pointer into the entry array can still be
// live — ProbeBatch callbacks receive such pointers, so releasing is legal
// only after the phase that probed the table has reached its barrier.
func (ht *HashTable) Release() {
	if ht == nil {
		return
	}
	if ht.heads != nil {
		headsPool.Put(ht.heads[:0]) //nolint:staticcheck // slice header round-trips through any
	}
	if ht.entries != nil {
		entriesPool.Put(ht.entries[:0]) //nolint:staticcheck // slice header round-trips through any
	}
	ht.heads, ht.entries = nil, nil
}

// slot remixes the routing hash before taking it modulo the chain count:
// routing hashes are dense small integers, and reducing them directly would
// alias with the split tables' mod indexing, producing pathological chain
// lengths that depend on gcd(slots, splitEntries).
const slotSalt = 0x00C0FFEE

func (ht *HashTable) slot(h uint64) int {
	return int(xrand.Mix64(h^slotSalt) % uint64(len(ht.heads)))
}

// Cutoff returns the current overflow cutoff: tuples whose hash is >= the
// cutoff must be routed to the overflow file instead of the table. The
// split table shipped to outer-relation producers is augmented with these
// per-site cutoffs (the h' functions of Section 3.2).
func (ht *HashTable) Cutoff() uint64 { return ht.cutoff }

// Overflowed reports whether any clearing pass has occurred.
func (ht *HashTable) Overflowed() bool { return ht.overflows > 0 }

// Overflows returns the number of clearing passes.
func (ht *HashTable) Overflows() int { return ht.overflows }

// Len returns the number of tuples currently in the table.
func (ht *HashTable) Len() int { return len(ht.entries) }

// BytesUsed returns the current table payload size.
func (ht *HashTable) BytesUsed() int64 { return int64(len(ht.entries)) * tuple.Bytes }

// Insert adds a tuple whose overflow key is below the cutoff (callers must
// check AboveCutoff first). The table is a materializing sink: the tuple is
// copied into it, so the pointer is only borrowed for the call. If the
// insert exceeds capacity, one or more clearing passes run and the evicted
// tuples are returned for the caller to write to its overflow file; the
// histogram, CPU costs, and cutoff are maintained here.
func (ht *HashTable) Insert(a *cost.Acct, t *tuple.Tuple, h uint64) []tuple.Tuple {
	key := OverflowKey(h)
	if key >= ht.cutoff {
		panic("gamma: Insert called with hash above cutoff")
	}
	a.AddCPU(ht.model.Insert + ht.model.Histogram)
	s := ht.slot(h)
	ht.entries = append(ht.entries, htEntry{h: h, key: key, next: ht.heads[s] - 1, t: *t})
	ht.heads[s] = int32(len(ht.entries))
	ht.hist[key>>56]++

	var evicted []tuple.Tuple
	for ht.BytesUsed() > ht.capBytes {
		ev := ht.clearTenPercent(a)
		if len(ev) == 0 {
			break // cannot clear further (degenerate single-range table)
		}
		evicted = append(evicted, ev...)
	}
	return evicted
}

// Resize changes the table's capacity mid-build — the memory-pressure
// fault path. Growing simply raises the ceiling (the chain directory is
// left alone; chains grow longer, which the per-visit Chain charge already
// prices). Shrinking runs clearing passes until the payload fits, and the
// evicted tuples are returned for the caller to demote to its overflow
// file, exactly as for a capacity-exceeding Insert.
func (ht *HashTable) Resize(a *cost.Acct, capBytes int64) []tuple.Tuple {
	if capBytes < tuple.Bytes {
		capBytes = tuple.Bytes
	}
	ht.capBytes = capBytes
	var evicted []tuple.Tuple
	for ht.BytesUsed() > ht.capBytes {
		ev := ht.clearTenPercent(a)
		if len(ev) == 0 {
			break // cannot clear further (degenerate single-range table)
		}
		evicted = append(evicted, ev...)
	}
	return evicted
}

// clearTenPercent picks a new, lower cutoff from the histogram that frees
// about 10% of the table's capacity, evicts every entry at or above it, and
// returns the evicted tuples. The returned slice is freshly allocated and
// owned by the caller, never a view of the entry array, so references into
// it may ride the exchange to an overflow file after the table compacts.
func (ht *HashTable) clearTenPercent(a *cost.Acct) []tuple.Tuple {
	target := int32(ht.capBytes / tuple.Bytes / 10)
	if target < 1 {
		target = 1
	}
	// Walk histogram ranges from the top down until enough tuples are
	// covered; the cutoff becomes the bottom of the last range included.
	var covered int32
	lo := 255
	for ; lo >= 0; lo-- {
		covered += ht.hist[lo]
		if covered >= target {
			break
		}
	}
	if lo < 0 {
		lo = 0
	}
	newCutoff := uint64(lo) << 56
	if newCutoff >= ht.cutoff {
		// All remaining tuples share the lowest range; clear that whole
		// range (cutoff cannot be lowered below range granularity).
		if covered == 0 {
			return nil
		}
	}
	ht.cutoff = newCutoff
	ht.overflows++

	// Examine every tuple in the table and evict qualifying ones. covered
	// counts exactly the live tuples in ranges >= the new cutoff, so it
	// presizes the eviction buffer without regrowth.
	a.AddCPU(cost.ScaleNs(len(ht.entries), ht.model.Chain))
	kept := ht.entries[:0]
	evicted := make([]tuple.Tuple, 0, covered)
	for _, e := range ht.entries {
		if e.key >= ht.cutoff {
			evicted = append(evicted, e.t)
			ht.hist[e.key>>56]--
		} else {
			kept = append(kept, e)
		}
	}
	ht.entries = kept
	// Rebuild chains after compaction.
	for i := range ht.heads {
		ht.heads[i] = 0
	}
	for i := range ht.entries {
		s := ht.slot(ht.entries[i].h)
		ht.entries[i].next = ht.heads[s] - 1
		ht.heads[s] = int32(i + 1)
	}
	return evicted
}

// SpillAll drains the whole table — the dynamic Hybrid spill path, which
// demotes an entire partition to disk instead of shaving 10% off a shared
// table. Tuples come back (in a fresh slice the caller owns, like
// clearTenPercent's) in insertion order together with their routing
// hashes so the caller can forward them to the partition's overflow file
// with routing intact; the walk is charged like a clearing pass. The table
// is left empty but reusable (capacity, attr, and cutoff untouched), ready
// for a later resurrection.
func (ht *HashTable) SpillAll(a *cost.Acct) ([]tuple.Tuple, []uint64) {
	if len(ht.entries) == 0 {
		return nil, nil
	}
	a.AddCPU(cost.ScaleNs(len(ht.entries), ht.model.Chain))
	tuples := make([]tuple.Tuple, len(ht.entries))
	hashes := make([]uint64, len(ht.entries))
	for i := range ht.entries {
		tuples[i] = ht.entries[i].t
		hashes[i] = ht.entries[i].h
	}
	ht.entries = ht.entries[:0]
	for i := range ht.heads {
		ht.heads[i] = 0
	}
	ht.hist = [256]int32{}
	return tuples, hashes
}

// ProbeBatch probes the table with a run of outer tuples: outer tuple i
// (with routing hash hashes[i]) is compared on its integer attribute attr
// against the build side, and fn is called for every match. The charge
// sequence is one Probe per outer tuple and one Chain per visited entry,
// with fn's own charges landing between them exactly where the matches
// occur. A single tuple probes as a one-element run.
//
// The compare is hash-first: a chain entry is confirmed on its key only
// when its stored routing hash equals the outer tuple's. Every caller
// hashes both sides with split.Hash under the same seed, and split.Hash is
// a pure function of (key, seed), so equal keys always carry equal hashes
// and the filter can never drop a true match; the key compare still rejects
// hash collisions. The outer tuple is therefore dereferenced only on a hash
// match — a small fraction of the probe stream on selective joins — and the
// chain walk (and its charge) is unchanged.
func (ht *HashTable) ProbeBatch(a *cost.Acct, tuples []*tuple.Tuple, hashes []uint64, attr int,
	fn func(outer, match *tuple.Tuple)) {
	// fn never mutates the table (match callbacks only emit), so the hot
	// loop can work from locals instead of reloading fields after each call.
	heads, entries := ht.heads, ht.entries
	battr := ht.attr
	probeNs, chainNs := ht.model.Probe, ht.model.Chain
	nheads := uint64(len(heads))
	for i, h := range hashes[:len(tuples)] {
		a.AddCPU(probeNs)
		ht.probes++
		for e := heads[int(xrand.Mix64(h^slotSalt)%nheads)] - 1; e >= 0; e = entries[e].next {
			a.AddCPU(chainNs)
			ht.chainVisits++
			if entries[e].h == h && entries[e].t.Int(battr) == tuples[i].Int(attr) {
				fn(tuples[i], &entries[e].t)
			}
		}
	}
}

// ChainStats returns the average and maximum hash-chain length over
// non-empty chains (the paper reports 3.3 average / 16 max for the skewed
// inner relation).
func (ht *HashTable) ChainStats() (avg float64, maxLen int) {
	lengths := make(map[int]int)
	for i := range ht.entries {
		lengths[ht.slot(ht.entries[i].h)]++
	}
	if len(lengths) == 0 {
		return 0, 0
	}
	total := 0
	for _, l := range lengths {
		total += l
		if l > maxLen {
			maxLen = l
		}
	}
	return float64(total) / float64(len(lengths)), maxLen
}
