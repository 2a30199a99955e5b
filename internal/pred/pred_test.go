package pred

import (
	"testing"
	"testing/quick"

	"gammajoin/internal/tuple"
)

func mk(u1 int32) *tuple.Tuple {
	var t tuple.Tuple
	t.SetInt(tuple.Unique1, u1)
	t.SetInt(tuple.Unique2, u1*2)
	return &t
}

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   Op
		v    int32
		u1   int32
		want bool
	}{
		{EQ, 5, 5, true}, {EQ, 5, 6, false},
		{NE, 5, 6, true}, {NE, 5, 5, false},
		{LT, 5, 4, true}, {LT, 5, 5, false},
		{LE, 5, 5, true}, {LE, 5, 6, false},
		{GT, 5, 6, true}, {GT, 5, 5, false},
		{GE, 5, 5, true}, {GE, 5, 4, false},
	}
	for _, c := range cases {
		p := Cmp{Attr: tuple.Unique1, Op: c.op, Val: c.v}
		if got := p.Eval(mk(c.u1)); got != c.want {
			t.Errorf("%d %s %d = %v, want %v", c.u1, c.op, c.v, got, c.want)
		}
	}
	if (Cmp{Op: Op(99)}).Eval(mk(0)) {
		t.Error("unknown op should evaluate false")
	}
}

func TestTrue(t *testing.T) {
	p := True{}
	if !p.Eval(mk(0)) || p.Nodes() != 0 || p.String() != "true" {
		t.Fatal("True misbehaves")
	}
}

func TestAndOr(t *testing.T) {
	a := And{
		Cmp{Attr: tuple.Unique1, Op: GE, Val: 10},
		Cmp{Attr: tuple.Unique1, Op: LT, Val: 20},
	}
	if !a.Eval(mk(15)) || a.Eval(mk(25)) || a.Eval(mk(5)) {
		t.Fatal("And wrong")
	}
	if a.Nodes() != 2 {
		t.Fatalf("And nodes = %d", a.Nodes())
	}
	o := Or{
		Cmp{Attr: tuple.Unique1, Op: LT, Val: 10},
		Cmp{Attr: tuple.Unique2, Op: GT, Val: 100},
	}
	if !o.Eval(mk(5)) || !o.Eval(mk(60)) || o.Eval(mk(20)) {
		t.Fatal("Or wrong")
	}
	if o.Nodes() != 2 {
		t.Fatalf("Or nodes = %d", o.Nodes())
	}
}

func TestRangeSelectivity(t *testing.T) {
	// Range over a permutation selects exactly hi-lo tuples.
	p := Range(tuple.Unique1, 100, 200)
	n := 0
	for i := int32(0); i < 1000; i++ {
		if p.Eval(mk(i)) {
			n++
		}
	}
	if n != 100 {
		t.Fatalf("Range selected %d, want 100", n)
	}
}

func TestStrings(t *testing.T) {
	p := Range(tuple.Unique1, 0, 10)
	want := "(unique1 >= 0 and unique1 < 10)"
	if p.String() != want {
		t.Fatalf("String = %q, want %q", p.String(), want)
	}
	o := Or{Cmp{Attr: tuple.Two, Op: EQ, Val: 1}}
	if o.String() != "(two = 1)" {
		t.Fatalf("Or string = %q", o.String())
	}
	if Op(42).String() == "" {
		t.Fatal("unknown op should still print")
	}
}

func TestDeMorganProperty(t *testing.T) {
	// not(A and B) == (not A) or (not B) — via complement comparisons.
	f := func(v, lo, hi int32) bool {
		a := And{Cmp{Attr: tuple.Unique1, Op: GE, Val: lo}, Cmp{Attr: tuple.Unique1, Op: LT, Val: hi}}
		notA := Or{Cmp{Attr: tuple.Unique1, Op: LT, Val: lo}, Cmp{Attr: tuple.Unique1, Op: GE, Val: hi}}
		tp := mk(v)
		return a.Eval(tp) != notA.Eval(tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	for o := EQ; o <= GE; o++ {
		got, err := ParseOp(o.String())
		if err != nil || got != o {
			t.Errorf("ParseOp(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	for s, want := range map[string]Op{"==": EQ, "!=": NE} {
		if got, err := ParseOp(s); err != nil || got != want {
			t.Errorf("ParseOp(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "=<", "Op(6)", "eq"} {
		if _, err := ParseOp(s); err == nil {
			t.Errorf("ParseOp(%q) accepted", s)
		}
	}
}
