package gammajoin

import (
	"strings"
	"testing"
)

func opsMachine(t *testing.T) (*Machine, *Relation) {
	t.Helper()
	m := NewMachine(WithDisks(4))
	rel, err := m.Load("A", Wisconsin(2000, 11), ByHash, "unique1")
	if err != nil {
		t.Fatal(err)
	}
	return m, rel
}

func TestWhereAndCombinators(t *testing.T) {
	p1, err := Where("unique1", "<", 100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Where("unique1", ">=", 50)
	if err != nil {
		t.Fatal(err)
	}
	both := All(p1, p2)
	either := Any(p1, p2)
	var tp Tuple
	tp.SetInt(0, 75)
	if !both.Eval(&tp) || !either.Eval(&tp) {
		t.Fatal("75 should satisfy both predicates")
	}
	tp.SetInt(0, 25)
	if both.Eval(&tp) || !either.Eval(&tp) {
		t.Fatal("25 satisfies only the first")
	}
	for _, op := range []string{"=", "==", "<>", "!=", "<=", ">"} {
		if _, err := Where("unique1", op, 1); err != nil {
			t.Fatalf("op %q rejected: %v", op, err)
		}
	}
	if _, err := Where("unique1", "~", 1); err == nil {
		t.Fatal("bad operator accepted")
	}
	if _, err := Where("bogus", "<", 1); err == nil {
		t.Fatal("bad attribute accepted")
	}
}

func TestMachineSelect(t *testing.T) {
	m, rel := opsMachine(t)
	w, _ := Where("unique1", "<", 250)
	rep, rows, err := m.Select(rel, SelectOptions{Where: w, Collect: true, Store: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 250 || len(rows) != 250 {
		t.Fatalf("selected %d rows, collected %d", rep.Rows, len(rows))
	}
	// Projection by name.
	_, rows, err = m.Select(rel, SelectOptions{
		Where:   w,
		Project: []string{"unique1"},
		Collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if v, _ := Attr(&rows[i], "unique2"); v != 0 {
			t.Fatal("projection kept unique2")
		}
	}
	if _, _, err := m.Select(rel, SelectOptions{Project: []string{"zzz"}}); err == nil {
		t.Fatal("bad projection name accepted")
	}
}

func TestMachineAggregate(t *testing.T) {
	m, rel := opsMachine(t)
	_, groups, err := m.Aggregate(rel, "count", "unique1", "ten", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 10 {
		t.Fatalf("groups = %d", len(groups))
	}
	for _, g := range groups {
		if g.Value != 200 {
			t.Fatalf("group %d count = %v", g.Group, g.Value)
		}
	}
	_, scalar, err := m.Aggregate(rel, "max", "unique1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if scalar[0].Value != 1999 {
		t.Fatalf("max = %v", scalar[0].Value)
	}
	if _, _, err := m.Aggregate(rel, "COUNT", "unique1", "", nil); err != nil {
		t.Fatalf("upper-case aggregate name rejected: %v", err)
	}
	if _, _, err := m.Aggregate(rel, "median", "unique1", "", nil); err == nil {
		t.Fatal("unknown aggregate accepted")
	}
	if _, _, err := m.Aggregate(rel, "sum", "nope", "", nil); err == nil {
		t.Fatal("bad attribute accepted")
	}
	if _, _, err := m.Aggregate(rel, "sum", "unique1", "nope", nil); err == nil {
		t.Fatal("bad group attribute accepted")
	}
}

func TestAutoJoin(t *testing.T) {
	m := NewMachine(WithDisks(4), WithDiskless(4))
	outer := Wisconsin(2000, 12)
	inner := Bprime(outer, 200)
	a, _ := m.Load("A", outer, ByHash, "unique1")
	b, _ := m.Load("B", inner, ByHash, "unique1")
	plan, rep, err := m.AutoJoin(b, a, "unique1", "unique1", b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Alg != Hybrid {
		t.Fatalf("plan picked %v", plan.Alg)
	}
	if !plan.BitFilter {
		t.Fatal("plan should enable bit filters")
	}
	if rep.ResultCount != 200 {
		t.Fatalf("count = %d", rep.ResultCount)
	}
	if _, err := m.PlanJoin(b, a, "bogus", "unique1", 1); err == nil {
		t.Fatal("bad attribute accepted")
	}
	if _, err := m.PlanJoin(b, a, "unique1", "bogus", 1); err == nil {
		t.Fatal("bad outer attribute accepted")
	}
	for _, mem := range []int64{0, -5} {
		if _, err := m.PlanJoin(b, a, "unique1", "unique1", mem); err == nil || !strings.HasPrefix(err.Error(), "gammajoin:") {
			t.Errorf("PlanJoin with %d bytes: err = %v, want a gammajoin: error", mem, err)
		}
		if _, _, err := m.AutoJoin(b, a, "unique1", "unique1", mem); err == nil || !strings.HasPrefix(err.Error(), "gammajoin:") {
			t.Errorf("AutoJoin with %d bytes: err = %v, want a gammajoin: error", mem, err)
		}
	}
}

func TestIndexAndUpdateAPI(t *testing.T) {
	m, rel := opsMachine(t)
	ix, err := m.BuildIndex(rel, "unique1")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := Where("unique1", "<", 50)
	rep, rows, err := m.IndexSelect(ix, w, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 50 || len(rows) != 50 {
		t.Fatalf("index select rows = %d/%d", rep.Rows, len(rows))
	}
	urep, err := m.Update(rel, w, "fiftyPercent", 9)
	if err != nil {
		t.Fatal(err)
	}
	if urep.Rows != 50 {
		t.Fatalf("updated %d rows", urep.Rows)
	}
	if _, err := m.BuildIndex(rel, "bogus"); err == nil {
		t.Fatal("bad index attr accepted")
	}
	if _, err := m.Update(rel, nil, "bogus", 1); err == nil {
		t.Fatal("bad update attr accepted")
	}
	if _, err := m.Update(rel, nil, "unique1", 1); err == nil {
		t.Fatal("updating partitioning attr accepted")
	}
}
