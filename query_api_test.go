package gammajoin

import (
	"fmt"
	"strings"
	"testing"

	"gammajoin/internal/core"
)

func TestQueryAPI(t *testing.T) {
	m := NewMachine(WithDisks(4))
	outer := Wisconsin(2000, 31)
	inner := Wisconsin(2000, 32)
	a, _ := m.Load("A", outer, ByHash, "unique1")
	b, _ := m.Load("B", inner, ByHash, "unique1")

	w, _ := Where("unique1", "<", 200)
	qp, err := m.PrepareQuery(QuerySpec{
		Inner:            b,
		Outer:            a,
		InnerWhere:       w,
		On:               "unique1",
		InnerSelectivity: 0.1,
		MemoryRatio:      0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if qp.Algorithm() != Hybrid {
		t.Fatalf("algorithm = %v", qp.Algorithm())
	}
	if !strings.Contains(qp.Explain(), "JOIN [hybrid]") {
		t.Fatalf("Explain:\n%s", qp.Explain())
	}
	rep, err := qp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultCount != 200 {
		t.Fatalf("count = %d", rep.ResultCount)
	}

	// One-shot with a forced algorithm and different attributes per side.
	alg := SortMerge
	rep, err = m.Query(QuerySpec{
		Inner:   b,
		Outer:   a,
		On:      "unique1",
		OuterOn: "unique2",
		Force:   &alg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alg != SortMerge || rep.ResultCount != 2000 {
		t.Fatalf("alg=%v count=%d", rep.Alg, rep.ResultCount)
	}

	if _, err := m.PrepareQuery(QuerySpec{Inner: b, Outer: a, On: "zzz"}); err == nil {
		t.Fatal("bad attribute accepted")
	}
	if _, err := m.PrepareQuery(QuerySpec{Inner: b, Outer: a, On: "unique1", OuterOn: "zzz"}); err == nil {
		t.Fatal("bad outer attribute accepted")
	}
}

// TestPlanBucketsMatchRun checks that every planned join reports the bucket
// count its run uses, at each of the paper's memory ratios: AutoJoin's plan
// and EXPLAIN for the optimizer's own choice, and EXPLAIN for each forced
// bucketed algorithm.
func TestPlanBucketsMatchRun(t *testing.T) {
	m := NewMachine(WithDisks(8))
	outer := Wisconsin(10000, 41)
	a, _ := m.Load("A", outer, ByHash, "unique1")
	b, _ := m.Load("B", Bprime(outer, 1000), ByHash, "unique1")
	explained := func(t *testing.T, qp *QueryPlan, buckets int) {
		t.Helper()
		want := fmt.Sprintf(", %d buckets", buckets)
		if got := qp.Explain(); !strings.Contains(got, want) {
			t.Errorf("EXPLAIN lacks %q, the count the run used:\n%s", want, got)
		}
	}
	for k := 1; k <= 8; k++ {
		mem := int64(float64(b.Bytes()) / float64(k))
		t.Run(fmt.Sprintf("mem=1/%d", k), func(t *testing.T) {
			plan, rep, err := m.AutoJoin(b, a, "unique1", "unique1", mem)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Buckets != rep.Buckets {
				t.Errorf("AutoJoin planned %d buckets, ran %d", plan.Buckets, rep.Buckets)
			}
			qp, err := m.PrepareQuery(QuerySpec{Inner: b, Outer: a, On: "unique1", MemoryBytes: mem})
			if err != nil {
				t.Fatal(err)
			}
			explained(t, qp, rep.Buckets)
			for _, alg := range []Algorithm{Grace, Hybrid, core.HybridDyn} {
				qp, err := m.PrepareQuery(QuerySpec{Inner: b, Outer: a, On: "unique1",
					MemoryRatio: 1 / float64(k), Force: &alg})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := qp.Execute()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Alg != alg || rep.ResultCount != 1000 {
					t.Fatalf("forced %v ran %v with %d results", alg, rep.Alg, rep.ResultCount)
				}
				explained(t, qp, rep.Buckets)
			}
		})
	}
}
