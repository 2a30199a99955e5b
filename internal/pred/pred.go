// Package pred provides compiled selection predicates over Wisconsin
// tuples. Gamma compiles predicates into machine code attached to its
// operator processes; here a predicate is a small tree of comparison nodes
// whose evaluation cost is charged per tuple by the scan operators.
//
// Predicates are what the benchmark's other join queries (joinAselB,
// joinCselAselB) push into their scans.
package pred

import (
	"fmt"
	"strings"

	"gammajoin/internal/tuple"
)

// Op is a comparison operator.
type Op int

// Comparison operators.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
)

func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ParseOp parses a comparison operator: the String form of any Op, or the
// aliases "==" and "!=".
func ParseOp(s string) (Op, error) {
	switch s {
	case "==":
		return EQ, nil
	case "!=":
		return NE, nil
	}
	for o := EQ; o <= GE; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown comparison operator %q", s)
}

// Pred is a selection predicate.
type Pred interface {
	// Eval reports whether the tuple satisfies the predicate.
	Eval(t *tuple.Tuple) bool
	// Nodes counts comparison nodes, used to charge evaluation cost.
	Nodes() int
	fmt.Stringer
}

// True matches every tuple (the scan default).
type True struct{}

// Eval always reports true.
func (True) Eval(*tuple.Tuple) bool { return true }

// Nodes reports zero: a missing predicate costs nothing.
func (True) Nodes() int { return 0 }

func (True) String() string { return "true" }

// Cmp compares one integer attribute against a constant.
type Cmp struct {
	Attr int
	Op   Op
	Val  int32
}

// Eval applies the comparison.
func (c Cmp) Eval(t *tuple.Tuple) bool {
	v := t.Int(c.Attr)
	switch c.Op {
	case EQ:
		return v == c.Val
	case NE:
		return v != c.Val
	case LT:
		return v < c.Val
	case LE:
		return v <= c.Val
	case GT:
		return v > c.Val
	case GE:
		return v >= c.Val
	default:
		return false
	}
}

// Nodes reports one.
func (c Cmp) Nodes() int { return 1 }

func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %d", tuple.IntAttrNames[c.Attr], c.Op, c.Val)
}

// And is a conjunction.
type And []Pred

// Eval short-circuits on the first false conjunct.
func (a And) Eval(t *tuple.Tuple) bool {
	for _, p := range a {
		if !p.Eval(t) {
			return false
		}
	}
	return true
}

// Nodes sums the conjuncts.
func (a And) Nodes() int {
	n := 0
	for _, p := range a {
		n += p.Nodes()
	}
	return n
}

func (a And) String() string { return joinPreds([]Pred(a), " and ") }

// Or is a disjunction.
type Or []Pred

// Eval short-circuits on the first true disjunct.
func (o Or) Eval(t *tuple.Tuple) bool {
	for _, p := range o {
		if p.Eval(t) {
			return true
		}
	}
	return false
}

// Nodes sums the disjuncts.
func (o Or) Nodes() int {
	n := 0
	for _, p := range o {
		n += p.Nodes()
	}
	return n
}

func (o Or) String() string { return joinPreds([]Pred(o), " or ") }

func joinPreds(ps []Pred, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Range builds the benchmark's canonical range selection:
// lo <= attr < hi (e.g. the 10% selection of joinAselB).
func Range(attr int, lo, hi int32) Pred {
	return And{Cmp{Attr: attr, Op: GE, Val: lo}, Cmp{Attr: attr, Op: LT, Val: hi}}
}
