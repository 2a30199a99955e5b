package tuple_test

import (
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/gamma"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
)

// TestBatchAppendKeepsReference pins the reference-passing contract of the
// exchange: a Batch holds the caller's pointer (no copy), while the sinks
// that materialize tuples — a hash-table Insert and a file append, single
// or batched — copy, so later writes to the source never reach them.
func TestBatchAppendKeepsReference(t *testing.T) {
	src := &tuple.Tuple{}
	src.SetInt(tuple.Unique1, 42)

	var b tuple.Batch
	b.Append(src, split.Hash(42, 0))
	if b.Tuples[0] != src {
		t.Fatal("Batch.Append copied the tuple instead of keeping the reference")
	}

	m := cost.Default()
	var a cost.Acct
	ht := gamma.NewHashTable(m, 1<<16, tuple.Unique1)
	ht.Insert(&a, b.Tuples[0], b.Hashes[0])
	d := disk.New(0, m)
	one := wiss.NewFile("contract.one", d, m)
	one.Append(&a, b.Tuples[0])
	run := wiss.NewFile("contract.run", d, m)
	run.AppendBatch(&a, b.Tuples)

	src.SetInt(tuple.Unique1, 99) // visible through the batch, not the sinks
	if got := b.Tuples[0].Int(tuple.Unique1); got != 99 {
		t.Fatalf("batch reference reads %d, want the source's 99", got)
	}
	probe := &tuple.Tuple{}
	probe.SetInt(tuple.Unique1, 42)
	found := 0
	ht.ProbeBatch(&a, []*tuple.Tuple{probe}, []uint64{split.Hash(42, 0)}, tuple.Unique1,
		func(_, match *tuple.Tuple) {
			if match == src {
				t.Fatal("hash table stored the caller's pointer")
			}
			found++
		})
	if found != 1 {
		t.Fatalf("hash table lost its copy of 42: %d matches", found)
	}
	for _, f := range []*wiss.File{one, run} {
		got, ok := f.At(0)
		if !ok || got == src || got.Int(tuple.Unique1) != 42 {
			t.Fatalf("%s: stored tuple does not hold its own copy of 42", f.Name())
		}
	}
}
