// Package split implements Gamma's split tables — the data-partitioning
// mechanism at the heart of all four parallel join algorithms — exactly as
// described in Appendix A of Schneider & DeWitt (1989).
//
// A split table is indexed by applying the mod function to the hashed join
// attribute of each tuple. Three table shapes exist:
//
//   - a joining split table with one entry per process executing the join;
//   - a Grace partitioning split table with numBuckets x numDisks entries,
//     laid out bucket-major so that bucket b's fragment f lives at entry
//     b*numDisks + f;
//   - a Hybrid partitioning split table with joinNodes + (numBuckets-1) x
//     numDisks entries, whose first joinNodes entries route bucket-1 tuples
//     straight to the joining processes.
//
// This literal construction is what makes the paper's short-circuiting
// effects emerge: when a relation was loaded by hashing the same attribute
// across numDisks sites, entry index mod numDisks equals the loading index,
// so every bucket fragment is written to the local disk.
package split

import (
	"fmt"

	"gammajoin/internal/xrand"
)

// Hash hashes a join-attribute value under the given hash-function seed.
//
// Seed 0 is the system-wide default used for declustering relations at load
// time and for routing during joins. It is the identity on the 32-bit value:
// the paper's own examples (Table 1 of Section 4.1, Appendix A) map dense
// benchmark key values straight through the mod function, and that is also
// what makes the optimizer's integral bucket counts partition the dense
// unique1 domain exactly, so Grace and Hybrid "never experienced hash table
// overflow" on uniform data. Overflow cutoffs do not use this value directly
// — see gamma.OverflowKey — so dense routing hashes do not degrade the
// histogram.
//
// The Simple hash-join's overflow resolution switches to a new, fully mixed
// hash function on every overflow level (which is what turns HPJA joins into
// non-HPJA joins, Section 4.1).
func Hash(v int32, seed uint64) uint64 {
	if seed == 0 {
		return uint64(uint32(v))
	}
	return xrand.Mix64(uint64(uint32(v)) ^ (seed * 0x9E3779B97F4A7C15))
}

// JoinTable is a joining split table: one entry per joining process.
type JoinTable struct {
	Sites []int // site id of each joining process
}

// Entries returns the number of split-table entries.
func (t *JoinTable) Entries() int { return len(t.Sites) }

// Lookup returns the joining site for a hashed attribute value.
func (t *JoinTable) Lookup(h uint64) int {
	return t.Sites[h%uint64(len(t.Sites))]
}

// Index returns the raw mod index, used by tests and the Table 1 demo.
func (t *JoinTable) Index(h uint64) int { return int(h % uint64(len(t.Sites))) }

// PartTable is a partitioning split table. If JoinSites is nil the table is
// Grace-style (every bucket is stored on disk); otherwise it is Hybrid-style
// and bucket 0 routes directly to the joining processes.
type PartTable struct {
	Buckets   int
	DiskSites []int
	JoinSites []int // non-nil => Hybrid layout
}

// NewGrace builds the partitioning split table for a Grace join.
func NewGrace(buckets int, diskSites []int) (*PartTable, error) {
	if buckets < 1 || len(diskSites) == 0 {
		return nil, fmt.Errorf("split: invalid Grace table (%d buckets, %d disks)", buckets, len(diskSites))
	}
	return &PartTable{Buckets: buckets, DiskSites: diskSites}, nil
}

// NewHybrid builds the partitioning split table for a Hybrid join.
func NewHybrid(buckets int, diskSites, joinSites []int) (*PartTable, error) {
	if buckets < 1 || len(diskSites) == 0 || len(joinSites) == 0 {
		return nil, fmt.Errorf("split: invalid Hybrid table (%d buckets, %d disks, %d join nodes)",
			buckets, len(diskSites), len(joinSites))
	}
	return &PartTable{Buckets: buckets, DiskSites: diskSites, JoinSites: joinSites}, nil
}

// Entries returns the number of split-table entries (which also determines
// how many network packets are needed to ship the table to each producer).
func (t *PartTable) Entries() int {
	if t.JoinSites != nil {
		return len(t.JoinSites) + (t.Buckets-1)*len(t.DiskSites)
	}
	return t.Buckets * len(t.DiskSites)
}

// Lookup maps a hashed attribute value to (bucket, destination site).
// For Hybrid tables bucket 0 is the in-memory bucket and the destination is
// a joining process; for every other bucket the destination is the disk site
// storing that bucket fragment.
func (t *PartTable) Lookup(h uint64) (bucket, site int) {
	e := int(h % uint64(t.Entries()))
	if t.JoinSites != nil {
		j := len(t.JoinSites)
		if e < j {
			return 0, t.JoinSites[e]
		}
		e -= j
		return 1 + e/len(t.DiskSites), t.DiskSites[e%len(t.DiskSites)]
	}
	return e / len(t.DiskSites), t.DiskSites[e%len(t.DiskSites)]
}

// AnalyzeBuckets is the Optimizer Bucket Analyzer from Appendix A: starting
// from the optimizer's bucket count it returns the smallest count >= it for
// which every joining node can theoretically receive tuples during
// bucket-joining (avoiding the mod-cycle pathology the appendix illustrates
// with 2 disk nodes and 4 joining nodes).
func AnalyzeBuckets(hybrid bool, numDisks, joinNodes, numBuckets int) int {
	if numBuckets < 1 {
		numBuckets = 1
	}
	for {
		var total int
		if hybrid {
			total = joinNodes + (numBuckets-1)*numDisks
		} else {
			total = numBuckets * numDisks
		}

		// No problem with one bucket and no more disks than join nodes.
		if numBuckets == 1 && numDisks <= joinNodes {
			return numBuckets
		}

		i := 1
		for ; i <= total; i++ {
			if (total*i)%joinNodes == 0 {
				break
			}
		}
		if i*numDisks >= joinNodes {
			return numBuckets
		}
		numBuckets++
	}
}

// ReachableJoinSites simulates the bucket-joining redistribution for the
// given table shape and reports, for each on-disk bucket, the set of joining
// split-table indices that can receive tuples. It exists to validate
// AnalyzeBuckets: tuples in fragment entry e carry hash values h ≡ e (mod
// totalEntries), so during joining they map to indices (e + k*totalEntries)
// mod joinNodes.
func ReachableJoinSites(hybrid bool, numDisks, joinNodes, numBuckets int) [][]int {
	var total, firstDiskBucket int
	if hybrid {
		total = joinNodes + (numBuckets-1)*numDisks
		firstDiskBucket = 1
	} else {
		total = numBuckets * numDisks
		firstDiskBucket = 0
	}
	var out [][]int
	for b := firstDiskBucket; b < numBuckets; b++ {
		reach := make([]bool, joinNodes)
		for f := 0; f < numDisks; f++ {
			var e int
			if hybrid {
				e = joinNodes + (b-1)*numDisks + f
			} else {
				e = b*numDisks + f
			}
			for k := 0; k < joinNodes; k++ {
				reach[(e+k*total)%joinNodes] = true
			}
		}
		var sites []int
		for j, r := range reach {
			if r {
				sites = append(sites, j)
			}
		}
		out = append(out, sites)
	}
	return out
}

// AllJoinSitesReachable reports whether every joining node can receive
// tuples for every on-disk bucket.
func AllJoinSitesReachable(hybrid bool, numDisks, joinNodes, numBuckets int) bool {
	for _, sites := range ReachableJoinSites(hybrid, numDisks, joinNodes, numBuckets) {
		if len(sites) != joinNodes {
			return false
		}
	}
	return true
}
