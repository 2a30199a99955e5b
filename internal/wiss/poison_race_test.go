//go:build race

package wiss

import (
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/tuple"
)

// TestRecycledPageReadsPoisoned is the lifetime guard's own check: in a
// race build, a reference kept past Recycle must read the poison pattern,
// never the tuple it used to name — so a dangling exchange reference shows
// up as a wrong key (and a failed checksum or oracle) in the suites that
// run under -race.
func TestRecycledPageReadsPoisoned(t *testing.T) {
	f, _, _ := testFile(t, "poison")
	var a cost.Acct
	for i := 0; i < 3*f.perPage/2; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	first, _ := f.At(0)
	last, _ := f.At(f.Len() - 1)
	f.Recycle()
	for _, stale := range []*tuple.Tuple{first, last} {
		if *stale != poisonTuple {
			t.Fatalf("recycled page still reads unique1=%d, want the poison pattern", stale.Int(tuple.Unique1))
		}
	}
	if poisonTuple.Int(tuple.Unique1) >= 0 {
		t.Fatalf("poison key %d is a value generated relations hold", poisonTuple.Int(tuple.Unique1))
	}
}
