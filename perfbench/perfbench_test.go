package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
	"gammajoin/internal/walltime"
	"gammajoin/internal/wisconsin"
)

func TestClassifyPrecedence(t *testing.T) {
	mods := map[string]bool{"core": true, "tuple": true}
	cases := []struct {
		frames []string
		leafN  int
		want   string
	}{
		{[]string{"runtime.memmove", "gammajoin/internal/core.f", "runtime.gcBgMarkWorker"}, 1, bucketGC},
		{[]string{"runtime.duffcopy", "gammajoin/internal/tuple.(*Batch).Append"}, 1, bucketCopy},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgcSmallNoscan", "gammajoin/internal/core.f"}, 2, bucketAlloc},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "gammajoin/internal/core.f"}, 1, "core.host_share"},
		{[]string{"sort.Sort", "gammajoin/internal/tuple.Less", "gammajoin/internal/core.f"}, 1, "tuple.host_share"},
		{[]string{"gammajoin/internal/sched.run"}, 1, bucketInternal},
		{[]string{"runtime.futex", "main.main"}, 1, bucketOther},
	}
	for _, c := range cases {
		if got := classify(c.frames, c.leafN, mods); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestFoldRealProfile folds a profile the runtime wrote: every sample lands
// in exactly one bucket, so the shares sum to 1.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	start := walltime.Now()
	var sink uint64
	for walltime.Since(start).Seconds() < 0.3 {
		rel := wisconsin.Generate(2000, sink)
		for i := range rel {
			sink += tuple.PairChecksum(&rel[i], &rel[len(rel)-1-i])
		}
	}
	pprof.StopCPUProfile()
	f, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.samples == 0 {
		t.Skip("no samples recorded")
	}
	var sum float64
	for _, b := range foldBuckets() {
		sum += f.shares[b]
	}
	if f.sum != 1 || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fold sum %v, shares sum to %v over %d samples", f.sum, sum, f.samples)
	}
	if f.shares["wisconsin.host_share"]+f.shares["xrand.host_share"]+f.shares["tuple.host_share"] == 0 {
		t.Errorf("no sample attributed to the generator or checksum: %v", f.shares)
	}
}

// TestOracleMatchesEngine checks the map-join oracle against the engine on
// a small skewed NN join after an update, the path with duplicate keys.
func TestOracleMatchesEngine(t *testing.T) {
	outer := wisconsin.GenerateSkewed(4000, 3)
	inner := wisconsin.RandomSubset(outer, 400, 5)
	c := gamma.NewLocal(4, cost.Default())
	s, err := gamma.Load(c, "A", outer, gamma.RangeUniform, tuple.Normal)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gamma.Load(c, "B", inner, gamma.RangeUniform, tuple.Normal)
	if err != nil {
		t.Fatal(err)
	}
	cp := newRelCopy(outer)
	upd := setOnePercent(s, 100, 500, 42)
	urep, err := core.RunUpdate(c, *upd)
	if err != nil {
		t.Fatal(err)
	}
	if rows := cp.update(100, 500, 42); urep.Rows != rows {
		t.Fatalf("update touched %d rows, oracle says %d", urep.Rows, rows)
	}
	want := mapJoin(inner, cp, tuple.Normal, tuple.Normal)
	for _, alg := range sweepAlgs {
		rep, err := core.Run(c, core.Spec{Alg: alg, R: r, S: s, RAttr: tuple.Normal, SAttr: tuple.Normal, MemRatio: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if got := (expect{rep.ResultCount, rep.ResultSum}); got != want {
			t.Errorf("%s: got %+v, oracle %+v", alg, got, want)
		}
	}
	if stale := mapJoin(inner, newRelCopy(outer), tuple.Normal, tuple.Normal); stale.sum == want.sum {
		t.Error("the update did not change the oracle checksum; the test would not catch a missed update")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
