package gamma

import (
	"fmt"
	"sort"

	"gammajoin/internal/cost"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
)

// Strategy is a tuple declustering strategy (Section 2.2 of the paper).
type Strategy int

const (
	// RoundRobin distributes tuples cyclically across the disk sites.
	RoundRobin Strategy = iota
	// HashPart applies the system hash function to the partitioning
	// attribute; this is what makes a join on that attribute an "HPJA"
	// join with full network short-circuiting.
	HashPart
	// RangeUniform range-partitions on the partitioning attribute with
	// uniform tuple counts per site (used by the paper's skew experiments
	// so every processor scans the same amount of data).
	RangeUniform
)

func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case HashPart:
		return "hashed"
	case RangeUniform:
		return "range-uniform"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Relation is a horizontally declustered permanent relation.
type Relation struct {
	Name      string
	Strategy  Strategy
	PartAttr  int // partitioning attribute (integer attribute index)
	Fragments map[int]*wiss.File
	N         int64
}

// Bytes returns the relation size in bytes.
func (r *Relation) Bytes() int64 { return r.N * tuple.Bytes }

// FragmentSites returns the sites storing fragments, in ascending order.
func (r *Relation) FragmentSites() []int {
	sites := make([]int, 0, len(r.Fragments))
	for s := range r.Fragments {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	return sites
}

// Load declusters tuples across all disk sites of the cluster using the
// given strategy and partitioning attribute, returning the relation. Load
// time is not part of any query's response time, so the page writes are
// charged to a discarded account.
func Load(c *Cluster, name string, tuples []tuple.Tuple, strat Strategy, partAttr int) (*Relation, error) {
	disks := c.DiskSites()
	if len(disks) == 0 {
		return nil, fmt.Errorf("gamma: cluster has no disk sites")
	}
	if partAttr < 0 || partAttr >= tuple.NumInts {
		return nil, fmt.Errorf("gamma: invalid partitioning attribute %d", partAttr)
	}
	rel := &Relation{
		Name:      name,
		Strategy:  strat,
		PartAttr:  partAttr,
		Fragments: make(map[int]*wiss.File, len(disks)),
		N:         int64(len(tuples)),
	}
	for _, s := range disks {
		d, err := c.Disk(s)
		if err != nil {
			return nil, err
		}
		rel.Fragments[s] = wiss.NewFile(fmt.Sprintf("%s.f%d", name, s), d, c.Model)
	}

	// Compute each tuple's destination, then scatter into per-site groups
	// and append whole groups at once. Each site fragment lives on its own
	// disk, so grouping leaves every disk's page-write sequence unchanged;
	// the charges go to a discarded account either way.
	var sink cost.Acct
	groups := make(map[int][]*tuple.Tuple, len(disks))
	switch strat {
	case RoundRobin:
		for i := range tuples {
			site := disks[i%len(disks)]
			groups[site] = append(groups[site], &tuples[i])
		}
	case HashPart:
		for i := range tuples {
			h := split.Hash(tuples[i].Int(partAttr), 0)
			site := disks[h%uint64(len(disks))]
			groups[site] = append(groups[site], &tuples[i])
		}
	case RangeUniform:
		// Assign equal-count contiguous ranges of the sorted attribute:
		// "the system distributes the tuples uniformly across all sites".
		order := make([]int, len(tuples))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return tuples[order[a]].Int(partAttr) < tuples[order[b]].Int(partAttr)
		})
		per := (len(tuples) + len(disks) - 1) / len(disks)
		for rank, idx := range order {
			site := disks[min(rank/max(per, 1), len(disks)-1)]
			groups[site] = append(groups[site], &tuples[idx])
		}
	default:
		return nil, fmt.Errorf("gamma: unknown strategy %v", strat)
	}
	for s, g := range groups {
		rel.Fragments[s].AppendBatch(&sink, g)
	}
	for _, f := range rel.Fragments {
		f.Flush(&sink)
	}
	return rel, nil
}
