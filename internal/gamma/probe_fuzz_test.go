package gamma

import (
	"slices"
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

// probePair is one reported match: outer position and the inner tuple's id
// (its unique2, which the fuzz sets to the insertion index).
type probePair struct{ outer, inner int32 }

// FuzzProbe checks the hash-first probe against a nested-loop join over the
// same keys. Inner and outer keys are drawn from a small range, so keys
// repeat on both sides; the table is kept at the 16-chain minimum, so
// unrelated keys share chains; and hashMode 1 replaces split.Hash with a
// hash that keeps only the low two key bits, so distinct keys share whole
// hashes and only the key compare can tell them apart. Every mode hashes
// both sides with the same pure function of the key, which is the contract
// ProbeBatch relies on. The test also requires that probing the run
// tuple-by-tuple yields the same matches in the same order with the same
// charge as probing it whole.
func FuzzProbe(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(60), uint8(16), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(200), uint8(200), uint8(3), uint8(0), uint8(1))
	f.Add(uint64(3), uint8(64), uint8(120), uint8(255), uint8(1), uint8(2))
	f.Add(uint64(9), uint8(0), uint8(10), uint8(5), uint8(1), uint8(0))
	f.Add(uint64(11), uint8(30), uint8(0), uint8(5), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nInner, nOuter, keyRange, hashMode, attrSel uint8) {
		rng := xrand.New(seed)
		span := int(keyRange) + 1
		key := func() int32 { return int32(rng.Intn(span)) - int32(span/2) }
		hash := func(k int32) uint64 { return split.Hash(k, seed) }
		if hashMode%2 == 1 {
			hash = func(k int32) uint64 { return uint64(k) & 3 }
		}
		// The outer side joins on a different attribute than the inner
		// side when attrSel asks for it, as R.unique1 = S.unique3 would.
		innerAttr, outerAttr := tuple.Unique1, tuple.Unique1
		if attrSel%2 == 1 {
			outerAttr = tuple.Unique3
		}

		inner := make([]tuple.Tuple, nInner)
		// Capacity for every inner tuple but never more than 16 chains, so
		// no insert evicts and slots collide whenever nInner > 16.
		capBytes := int64(max(int(nInner), 16)) * tuple.Bytes
		ht := NewHashTable(cost.Default(), capBytes, innerAttr)
		ht.heads = ht.heads[:16]
		var a cost.Acct
		for i := range inner {
			inner[i].SetInt(innerAttr, key())
			inner[i].SetInt(tuple.Unique2, int32(i))
			if ev := ht.Insert(&a, &inner[i], hash(inner[i].Int(innerAttr))); len(ev) != 0 {
				t.Fatalf("insert %d evicted %d tuples; the table must hold every inner tuple", i, len(ev))
			}
		}

		outer := make([]tuple.Tuple, nOuter)
		refs := make([]*tuple.Tuple, nOuter)
		hashes := make([]uint64, nOuter)
		for i := range outer {
			outer[i].SetInt(outerAttr, key())
			refs[i] = &outer[i]
			hashes[i] = hash(outer[i].Int(outerAttr))
		}

		var want []probePair
		for i := range outer {
			for j := range inner {
				if inner[j].Int(innerAttr) == outer[i].Int(outerAttr) {
					want = append(want, probePair{int32(i), int32(j)})
				}
			}
		}

		collect := func(got *[]probePair) func(o, m *tuple.Tuple) {
			return func(o, m *tuple.Tuple) {
				idx := slices.Index(refs, o)
				if idx < 0 {
					t.Fatal("match callback got an outer pointer not from the probe run")
				}
				*got = append(*got, probePair{int32(idx), m.Int(tuple.Unique2)})
			}
		}
		var whole, single []probePair
		var aWhole, aSingle cost.Acct
		ht.ProbeBatch(&aWhole, refs, hashes, outerAttr, collect(&whole))
		for i := range refs {
			ht.ProbeBatch(&aSingle, refs[i:i+1], hashes[i:i+1], outerAttr, collect(&single))
		}
		if !slices.Equal(whole, single) || aWhole.CPU != aSingle.CPU {
			t.Fatalf("whole-run probe (%d matches, %v) differs from per-tuple probe (%d matches, %v)",
				len(whole), aWhole.CPU, len(single), aSingle.CPU)
		}

		less := func(x, y probePair) int {
			if x.outer != y.outer {
				return int(x.outer - y.outer)
			}
			return int(x.inner - y.inner)
		}
		slices.SortFunc(whole, less)
		if !slices.Equal(whole, want) {
			t.Fatalf("probe found %d matches, nested loop %d", len(whole), len(want))
		}
	})
}
