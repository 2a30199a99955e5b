package core

import (
	"testing"

	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
)

// TestRecursiveOverflowResolution drives the Simple hash-join's recursive
// overflow machinery (hashJoin: each level rehashes the previous
// level's overflow files with seed+1) through multiple levels by giving it
// a fraction of the memory it needs, and checks both the join result and
// the accounting that the levels leave behind.
func TestRecursiveOverflowResolution(t *testing.T) {
	c := gamma.NewLocal(4, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	rep := runJoin(t, f, Simple, 0.05, nil)

	if rep.ResultCount != 400 {
		t.Errorf("result count %d, want 400", rep.ResultCount)
	}
	if rep.OverflowLevels < 2 {
		t.Errorf("overflow levels = %d, want >= 2 (fixture must force recursion)", rep.OverflowLevels)
	}
	if rep.OverflowClears == 0 {
		t.Error("no clearing passes recorded despite recursion")
	}
	if rep.ROverflowed == 0 || rep.SOverflowed == 0 {
		t.Errorf("overflow routing not accounted: R=%d S=%d", rep.ROverflowed, rep.SOverflowed)
	}
	// Every level's demotions pass through the clearing machinery, so the
	// tuples routed to overflow must at least cover one eviction per
	// clearing pass.
	if rep.ROverflowed < rep.OverflowClears {
		t.Errorf("inconsistent accounting: %d overflowed tuples < %d clears",
			rep.ROverflowed, rep.OverflowClears)
	}

	// The recursion is deterministic: an identical cluster must reproduce
	// the same level count and clearing totals.
	c2 := gamma.NewLocal(4, nil)
	f2 := mkFixture(t, c2, 4000, gamma.HashPart, tuple.Unique1)
	rep2 := runJoin(t, f2, Simple, 0.05, nil)
	if rep2.OverflowLevels != rep.OverflowLevels || rep2.OverflowClears != rep.OverflowClears {
		t.Errorf("recursion not reproducible: levels %d/%d, clears %d/%d",
			rep.OverflowLevels, rep2.OverflowLevels, rep.OverflowClears, rep2.OverflowClears)
	}
}

// TestHybridBucketOneOverflowRecursion exercises the other entry into the
// recursive resolver: Hybrid's optimistic single-bucket overflow (base
// level 1), which must also recurse and still agree with the reference
// count.
func TestHybridBucketOneOverflowRecursion(t *testing.T) {
	c := gamma.NewLocal(4, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	rep := runJoin(t, f, Hybrid, 0.3, func(sp *Spec) {
		sp.ForceBuckets = 1 // too few buckets: bucket 1 cannot fit
		sp.AllowOverflow = true
	})
	if rep.ResultCount != 400 {
		t.Errorf("result count %d, want 400", rep.ResultCount)
	}
	if rep.OverflowLevels < 2 {
		t.Errorf("overflow levels = %d, want >= 2", rep.OverflowLevels)
	}
	if rep.OverflowClears == 0 || rep.ROverflowed == 0 {
		t.Errorf("bucket-1 overflow not accounted: clears=%d rOver=%d",
			rep.OverflowClears, rep.ROverflowed)
	}
}
