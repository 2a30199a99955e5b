package wiss

import (
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/tuple"
)

func testFile(t *testing.T, name string) (*File, *disk.Disk, *cost.Model) {
	t.Helper()
	m := cost.Default()
	d := disk.New(0, m)
	return NewFile(name, d, m), d, m
}

func mkTuple(u1 int32) *tuple.Tuple {
	var tp tuple.Tuple
	tp.SetInt(tuple.Unique1, u1)
	tp.SetInt(tuple.Unique2, u1*7)
	return &tp
}

func TestAppendScanRoundTrip(t *testing.T) {
	f, _, _ := testFile(t, "t")
	var a cost.Acct
	const n = 100
	for i := 0; i < n; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	f.Flush(&a)
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}
	var got []int32
	f.Scan(&a, func(tp *tuple.Tuple) bool {
		got = append(got, tp.Int(tuple.Unique1))
		return true
	})
	if len(got) != n {
		t.Fatalf("scanned %d tuples", len(got))
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("tuple %d = %d (order not preserved)", i, v)
		}
	}
}

func TestPageAccounting(t *testing.T) {
	f, d, m := testFile(t, "t")
	var a cost.Acct
	perPage := m.TuplesPerPage(tuple.Bytes) // 39 with defaults
	// Exactly two full pages plus one tuple.
	n := perPage*2 + 1
	for i := 0; i < n; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	if w := d.Counters().PagesWritten; w != 2 {
		t.Fatalf("full pages written = %d, want 2", w)
	}
	f.Flush(&a)
	if w := d.Counters().PagesWritten; w != 3 {
		t.Fatalf("pages written after flush = %d, want 3", w)
	}
	if f.Pages() != 3 {
		t.Fatalf("Pages = %d, want 3", f.Pages())
	}
	before := d.Counters().PagesRead
	f.Scan(&a, func(*tuple.Tuple) bool { return true })
	if r := d.Counters().PagesRead - before; r != 3 {
		t.Fatalf("pages read = %d, want 3", r)
	}
}

func TestScanEarlyStopSkipsPages(t *testing.T) {
	f, d, m := testFile(t, "t")
	var a cost.Acct
	perPage := m.TuplesPerPage(tuple.Bytes)
	for i := 0; i < perPage*10; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	f.Flush(&a)
	before := d.Counters().PagesRead
	seen := 0
	f.Scan(&a, func(*tuple.Tuple) bool {
		seen++
		return seen < perPage // stop within the first page
	})
	if r := d.Counters().PagesRead - before; r != 1 {
		t.Fatalf("early-stopped scan read %d pages, want 1", r)
	}
}

func TestScanChargesCPU(t *testing.T) {
	f, _, m := testFile(t, "t")
	var w cost.Acct
	for i := 0; i < 10; i++ {
		f.Append(&w, mkTuple(int32(i)))
	}
	f.Flush(&w)
	if w.CPU != 10*m.WriteTuple {
		t.Fatalf("append CPU = %d, want %d", w.CPU, 10*m.WriteTuple)
	}
	var r cost.Acct
	f.Scan(&r, func(*tuple.Tuple) bool { return true })
	if r.CPU != 10*m.ReadTuple {
		t.Fatalf("scan CPU = %d, want %d", r.CPU, 10*m.ReadTuple)
	}
}

func TestCursor(t *testing.T) {
	f, _, _ := testFile(t, "t")
	var a cost.Acct
	const n = 95
	for i := 0; i < n; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	f.Flush(&a)
	c := f.NewCursor(&a)
	for i := 0; i < n; i++ {
		tp, ok := c.Next()
		if !ok {
			t.Fatalf("cursor ended early at %d", i)
		}
		if tp.Int(tuple.Unique1) != int32(i) {
			t.Fatalf("cursor tuple %d = %d", i, tp.Int(tuple.Unique1))
		}
	}
	if _, ok := c.Next(); ok {
		t.Fatal("cursor did not end")
	}
	c.Reset()
	if tp, ok := c.Next(); !ok || tp.Int(tuple.Unique1) != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestEmptyFile(t *testing.T) {
	f, _, _ := testFile(t, "empty")
	var a cost.Acct
	f.Flush(&a) // no-op
	if a.Disk != 0 {
		t.Fatal("flushing empty file charged disk time")
	}
	f.Scan(&a, func(*tuple.Tuple) bool { t.Fatal("callback on empty file"); return false })
	if _, ok := f.NewCursor(&a).Next(); ok {
		t.Fatal("cursor on empty file returned a tuple")
	}
}

func TestFileIDsUnique(t *testing.T) {
	f1, _, _ := testFile(t, "a")
	f2, _, _ := testFile(t, "b")
	if f1.ID() == f2.ID() {
		t.Fatal("file ids must be unique")
	}
	if f1.Name() != "a" || f2.Name() != "b" {
		t.Fatal("names wrong")
	}
	// Ids are derived from names, so recreating a file reproduces its id —
	// the property that keeps arm-movement and fault accounting identical
	// across repeated runs in one process.
	f3, _, _ := testFile(t, "a")
	if f3.ID() != f1.ID() {
		t.Fatal("same name must yield the same id")
	}
}

func TestAt(t *testing.T) {
	f, _, _ := testFile(t, "t")
	var a cost.Acct
	for i := 0; i < 80; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	f.Flush(&a)
	for _, pos := range []int64{0, 38, 39, 79} {
		tp, ok := f.At(pos)
		if !ok || tp.Int(tuple.Unique1) != int32(pos) {
			t.Fatalf("At(%d) = %v, %v", pos, tp, ok)
		}
	}
	if _, ok := f.At(-1); ok {
		t.Fatal("At(-1) succeeded")
	}
	if _, ok := f.At(80); ok {
		t.Fatal("At past end succeeded")
	}
}

func TestUpdateWhere(t *testing.T) {
	f, d, m := testFile(t, "t")
	var a cost.Acct
	perPage := m.TuplesPerPage(tuple.Bytes)
	for i := 0; i < perPage*3; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	f.Flush(&a)
	before := d.Counters()
	var b cost.Acct
	// Update only tuples on the first page.
	n := f.UpdateWhere(&b,
		func(tp *tuple.Tuple) bool { return tp.Int(tuple.Unique1) < int32(perPage) },
		func(tp *tuple.Tuple) { tp.SetInt(tuple.Unique2, -1) })
	if n != int64(perPage) {
		t.Fatalf("updated %d, want %d", n, perPage)
	}
	diff := d.Counters().Sub(before)
	if diff.PagesWritten != 1 {
		t.Fatalf("dirty pages written = %d, want 1", diff.PagesWritten)
	}
	if diff.PagesRead != 3 {
		t.Fatalf("pages read = %d, want 3", diff.PagesRead)
	}
	// Mutations visible.
	count := 0
	f.Scan(&b, func(tp *tuple.Tuple) bool {
		if tp.Int(tuple.Unique2) == -1 {
			count++
		}
		return true
	})
	if count != perPage {
		t.Fatalf("visible mutations = %d", count)
	}
	// No matches -> no writes.
	before = d.Counters()
	if n := f.UpdateWhere(&b, func(*tuple.Tuple) bool { return false }, func(*tuple.Tuple) {}); n != 0 {
		t.Fatalf("phantom updates: %d", n)
	}
	if w := d.Counters().Sub(before).PagesWritten; w != 0 {
		t.Fatalf("no-op update wrote %d pages", w)
	}
}
