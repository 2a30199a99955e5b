package gammaql

import (
	"io"
	"strings"
	"testing"

	"gammajoin/internal/gamma"
)

func newTestSession() (*Session, *strings.Builder) {
	var out strings.Builder
	s := NewSession(gamma.NewLocal(4, nil), &out)
	return s, &out
}

func mustExec(t *testing.T, s *Session, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if err := s.Exec(l); err != nil {
			t.Fatalf("Exec(%q): %v", l, err)
		}
	}
}

func TestCreateAndJoin(t *testing.T) {
	s, out := newTestSession()
	mustExec(t, s,
		"create A 2000 partition by hash unique1;",
		"create B bprime A 200 partition by hash unique1;",
		"join B A on unique1 using hybrid mem 0.5 filter;",
	)
	got := out.String()
	for _, want := range []string{
		"created A: 2000 tuples",
		"created B: 200 tuples",
		"hybrid join: 200 result tuples",
		"bit filter: 4021 bits/site", // 2 KB packet shared across 4 join sites
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestHybridDynJoin(t *testing.T) {
	s, out := newTestSession()
	mustExec(t, s,
		"create A 2000 partition by hash unique1",
		"create B bprime A 200 partition by hash unique1",
		"join B A on unique1 using hybrid-dyn mem 0.5",
	)
	if !strings.Contains(out.String(), "hybrid-dyn join: 200 result tuples") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestSkewedSubsetJoin(t *testing.T) {
	s, out := newTestSession()
	mustExec(t, s,
		"seed 7",
		"create A 4000 skewed partition by range unique3",
		"create B subset A 400 partition by range unique3",
		"join B A on unique3 and unique1 using sortmerge mem 1.0 nostore",
	)
	if !strings.Contains(out.String(), "sort-merge join: 400 result tuples") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestShowAndRelations(t *testing.T) {
	s, out := newTestSession()
	mustExec(t, s,
		"create A 800 partition by roundrobin unique1",
		"show A",
		"relations",
	)
	got := out.String()
	if !strings.Contains(got, "site 0: 200 tuples") {
		t.Errorf("show output wrong:\n%s", got)
	}
	if !strings.Contains(got, "A: 800 tuples, round-robin on unique1") {
		t.Errorf("relations output wrong:\n%s", got)
	}
}

func TestGraceWithBucketsAndOverflowFlags(t *testing.T) {
	s, out := newTestSession()
	mustExec(t, s,
		"create A 2000 partition by hash unique1",
		"create B bprime A 200 partition by hash unique1",
		"join B A on unique1 using grace mem 0.25 buckets 5",
		"join B A on unique1 using hybrid mem 0.7 overflow",
	)
	got := out.String()
	if !strings.Contains(got, "buckets: 5") {
		t.Errorf("forced bucket count not honoured:\n%s", got)
	}
	if !strings.Contains(got, "overflow:") {
		t.Errorf("overflow run reported no overflow:\n%s", got)
	}
}

func TestQuitAndComments(t *testing.T) {
	s, _ := newTestSession()
	if err := s.Exec("-- a comment"); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(""); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec("quit"); err != io.EOF {
		t.Fatalf("quit returned %v, want io.EOF", err)
	}
}

func TestHelp(t *testing.T) {
	s, out := newTestSession()
	mustExec(t, s, "help")
	if !strings.Contains(out.String(), "join <inner> <outer>") {
		t.Error("help text missing join usage")
	}
}

func TestErrors(t *testing.T) {
	s, _ := newTestSession()
	cases := []string{
		"bogus",
		"seed xyz",
		"show missing",
		"create A partition by hash unique1",             // missing cardinality
		"create A -5 partition by hash unique1",          // bad cardinality
		"create A 100 partition by warp unique1",         // bad strategy
		"create A 100 partition by hash nothere",         // bad attribute
		"create B bprime A 10 partition by hash unique1", // missing source
		"join A B on unique1 using hybrid mem 0.5",       // relations not created
	}
	for _, c := range cases {
		if err := s.Exec(c); err == nil {
			t.Errorf("Exec(%q) should fail", c)
		}
	}
	mustExec(t, s, "create A 500 partition by hash unique1")
	moreCases := []string{
		"join A A using hybrid mem 0.5",               // missing ON
		"join A A on unique1 using warp mem 0.5",      // bad algorithm
		"join A A on unique1 using hybrid mem zero",   // bad ratio
		"join A A on unique1 using hybrid",            // missing mem
		"join A A on unique1 using hybrid mem 0.5 xx", // trailing junk
	}
	for _, c := range moreCases {
		if err := s.Exec(c); err == nil {
			t.Errorf("Exec(%q) should fail", c)
		}
	}
}

func TestSelectCommand(t *testing.T) {
	s, out := newTestSession()
	mustExec(t, s,
		"create A 1000 partition by hash unique1",
		"select A where unique1 < 100 store",
		"select A",
	)
	got := out.String()
	if !strings.Contains(got, "selected 100 tuples") {
		t.Errorf("selection output wrong:\n%s", got)
	}
	if !strings.Contains(got, "selected 1000 tuples") {
		t.Errorf("unfiltered selection output wrong:\n%s", got)
	}
	mustExec(t, s, "select A where unique1 >= 10 and unique1 < 30")
	if !strings.Contains(out.String(), "selected 20 tuples") {
		t.Errorf("conjunction output wrong:\n%s", out.String())
	}
}

func TestAggCommand(t *testing.T) {
	s, out := newTestSession()
	mustExec(t, s,
		"create A 1000 partition by hash unique1",
		"agg count unique1 by ten on A",
		"agg max unique1 on A",
		"agg avg unique1 on A where unique1 < 10",
	)
	got := out.String()
	if !strings.Contains(got, "10 group(s)") {
		t.Errorf("grouped aggregate wrong:\n%s", got)
	}
	if !strings.Contains(got, "max(unique1) = 999") {
		t.Errorf("scalar max wrong:\n%s", got)
	}
	if !strings.Contains(got, "avg(unique1) = 4.5") {
		t.Errorf("filtered avg wrong:\n%s", got)
	}
}

func TestPlanCommand(t *testing.T) {
	s, out := newTestSession()
	mustExec(t, s,
		"create A 2000 partition by hash unique1",
		"create B bprime A 200 partition by hash unique1",
		"plan B A on unique1 mem 0.5",
	)
	got := out.String()
	if !strings.Contains(got, "optimizer: hybrid join") {
		t.Errorf("plan output wrong:\n%s", got)
	}
	if !strings.Contains(got, "200 result tuples") {
		t.Errorf("planned join did not run:\n%s", got)
	}
}

func TestNewCommandErrors(t *testing.T) {
	s, _ := newTestSession()
	mustExec(t, s, "create A 500 partition by hash unique1")
	for _, c := range []string{
		"select",                        // missing relation
		"select missing",                // unknown relation
		"select A where unique1",        // truncated where
		"select A where unique1 ~ 5",    // bad operator
		"select A where unique1 < five", // bad constant
		"select A extra",                // junk
		"agg median unique1 on A",       // bad fn
		"agg sum nope on A",             // bad attr
		"agg sum unique1 by nope on A",  // bad group attr
		"agg sum unique1 on missing",    // unknown relation
		"agg sum unique1 A",             // missing ON
		"plan A A on unique1",           // missing mem
		"plan A missing on unique1 mem 1",
		"plan A A on unique1 mem zero",
	} {
		if err := s.Exec(c); err == nil {
			t.Errorf("Exec(%q) should fail", c)
		}
	}
}

func TestUpdateCommand(t *testing.T) {
	s, out := newTestSession()
	mustExec(t, s,
		"create A 500 partition by hash unique1",
		"update A set twentyPercent 42 where unique1 < 50",
		"select A where twentyPercent = 42",
	)
	got := out.String()
	if !strings.Contains(got, "updated 50 tuples") {
		t.Errorf("update output wrong:\n%s", got)
	}
	if !strings.Contains(got, "selected 50 tuples") {
		t.Errorf("update not visible:\n%s", got)
	}
	for _, c := range []string{
		"update missing set two 1",
		"update A put two 1",
		"update A set nope 1",
		"update A set two xx",
		"update A set unique1 1", // partitioning attribute
		"update A set two 1 junk",
	} {
		if err := s.Exec(c); err == nil {
			t.Errorf("Exec(%q) should fail", c)
		}
	}
}
