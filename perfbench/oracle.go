package main

import (
	"gammajoin/internal/tuple"
)

// expect is what one operation must return: a join's result count and
// order-independent checksum, or an update's row count (sum unused).
type expect struct {
	count int64
	sum   uint64
}

// relCopy is the benchmark's own copy of one loaded outer relation: the
// generated tuples plus the onePercent values the updates have written.
// The base tuples are shared read-only between copies; each copy owns its
// overlay.
type relCopy struct {
	base    []tuple.Tuple
	onePct  []int32
	byUniq2 []int32 // unique2 value -> index in base (unique2 is a permutation)
}

func newRelCopy(base []tuple.Tuple) *relCopy {
	c := &relCopy{base: base, onePct: make([]int32, len(base)), byUniq2: make([]int32, len(base))}
	for i := range base {
		c.onePct[i] = base[i].Ints[tuple.OnePercent]
		c.byUniq2[base[i].Ints[tuple.Unique2]] = int32(i)
	}
	return c
}

// update applies SET onePercent = val WHERE lo <= unique2 < hi and returns
// the number of rows it touched.
func (c *relCopy) update(lo, hi, val int32) int64 {
	for u := lo; u < hi; u++ {
		c.onePct[c.byUniq2[u]] = val
	}
	return int64(hi - lo)
}

// mapJoin is the oracle: an in-memory hash join of inner.rAttr =
// outer.sAttr over the benchmark's copies, checksummed with the same
// tuple.PairChecksum the engine folds into Report.ResultSum.
func mapJoin(inner []tuple.Tuple, outer *relCopy, rAttr, sAttr int) expect {
	idx := make(map[int32][]int32, len(inner))
	for i := range inner {
		k := inner[i].Ints[rAttr]
		idx[k] = append(idx[k], int32(i))
	}
	var e expect
	for o := range outer.base {
		matches := idx[outer.base[o].Ints[sAttr]]
		if len(matches) == 0 {
			continue
		}
		t := outer.base[o]
		t.Ints[tuple.OnePercent] = outer.onePct[o]
		for _, i := range matches {
			e.count++
			e.sum += tuple.PairChecksum(&inner[i], &t)
		}
	}
	return e
}
