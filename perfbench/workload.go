package main

import (
	"fmt"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/experiments"
	"gammajoin/internal/gamma"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
	"gammajoin/internal/xrand"
)

// The paper's joinABprime scale and machine.
const (
	outerN   = 100000
	innerN   = 10000
	diskN    = 8
	disklesN = 8
)

// op is one operation of a client's pass: a join or an in-place update.
type op struct {
	join *core.Spec
	upd  *core.UpdateSpec
	attr string // span attribute: the algorithm, or the updated relation

	// paper, when set, is the experiments run key this join reproduces;
	// its simulated seconds must equal Harness.Seconds for that key.
	paper *experiments.RunKey

	// oracle computes the expected result from the benchmark's own copy
	// of the data, applying the operation to that copy first if it is an
	// update. want[0] holds it for the warm-up pass, want[1] for every
	// later pass (a pass's updates leave the same state each time it
	// repeats, so only the first pass differs).
	oracle func() expect
	want   [2]expect
}

// client is one closed-loop stream: its own machine and its pass.
type client struct {
	id      int
	cluster *gamma.Cluster
	pass    []op
}

// prepare fills every op's expected results by replaying the pass twice
// against the benchmark's copies. It runs outside every timed phase.
func (c *client) prepare() {
	for p := range 2 {
		for i := range c.pass {
			c.pass[i].want[p] = c.pass[i].oracle()
		}
	}
}

// workload is one benchmark workload: set-up builds the clients' machines
// and passes. Why each exists is on its set-up function and in README.md.
type workload struct {
	name  string
	setup func(seed uint64, s *setupTracer) ([]*client, error)
}

var workloads = []workload{
	{"abprime-sweep", setupABprimeSweep},
	{"resident-remote", setupResidentRemote},
	{"skew-update-2c", setupSkewUpdate},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupTracer records set-up spans around the generator and loader calls.
type setupTracer struct {
	log    *spanLog
	parent int
}

func (s *setupTracer) generate(name string, f func() []tuple.Tuple) []tuple.Tuple {
	i := s.log.begin(0, s.parent, "wisconsin", "wisconsin."+name, "")
	out := f()
	s.log.end(i)
	return out
}

func (s *setupTracer) load(c *gamma.Cluster, name string, tuples []tuple.Tuple,
	strat gamma.Strategy, attr int) (*gamma.Relation, error) {
	i := s.log.begin(0, s.parent, "gamma", "gamma.Load", name)
	rel, err := gamma.Load(c, name, tuples, strat, attr)
	s.log.end(i)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	return rel, nil
}

// uniformPair generates the joinABprime relations exactly as the
// experiments harness does for seed, and loads them hash-partitioned on
// partAttr under the harness's relation names.
func uniformPair(seed uint64, s *setupTracer, c *gamma.Cluster, partAttr int) (r, sRel *gamma.Relation, oracle func() expect, err error) {
	outer := s.generate("Generate", func() []tuple.Tuple { return wisconsin.Generate(outerN, seed) })
	inner := s.generate("Bprime", func() []tuple.Tuple { return wisconsin.Bprime(outer, innerN) })
	if sRel, err = s.load(c, fmt.Sprintf("A.p%d", partAttr), outer, gamma.HashPart, partAttr); err != nil {
		return
	}
	if r, err = s.load(c, fmt.Sprintf("Bprime.p%d", partAttr), inner, gamma.HashPart, partAttr); err != nil {
		return
	}
	// The uniform relations are never updated: one oracle answer serves
	// every join of the pass.
	var e *expect
	oracle = func() expect {
		if e == nil {
			v := mapJoin(inner, newRelCopy(outer), tuple.Unique1, tuple.Unique1)
			e = &v
		}
		return *e
	}
	return
}

var sweepAlgs = []core.Algorithm{core.SortMerge, core.Simple, core.Grace, core.Hybrid, core.HybridDyn}

// setupABprimeSweep: one client, local configuration, HPJA; every
// algorithm at memory ratios 1, 1/2, 1/4 and 1/8 with the result stored.
func setupABprimeSweep(seed uint64, s *setupTracer) ([]*client, error) {
	c := gamma.NewLocal(diskN, cost.Default())
	r, sRel, oracle, err := uniformPair(seed, s, c, tuple.Unique1)
	if err != nil {
		return nil, err
	}
	var pass []op
	for _, alg := range sweepAlgs {
		for _, ratio := range []float64{1, 1.0 / 2, 1.0 / 4, 1.0 / 8} {
			pass = append(pass, op{
				join: &core.Spec{Alg: alg, R: r, S: sRel, RAttr: tuple.Unique1, SAttr: tuple.Unique1,
					MemRatio: ratio, StoreResult: true},
				attr:   alg.String(),
				paper:  &experiments.RunKey{Alg: alg, HPJA: true, Ratio: ratio},
				oracle: oracle,
			})
		}
	}
	return []*client{{cluster: c, pass: pass}}, nil
}

// setupResidentRemote: one client, remote configuration, relations
// partitioned on unique2 and joined on unique1; Hybrid, Simple and dynamic
// Hybrid at memory ratio 1, bit filter off then on.
func setupResidentRemote(seed uint64, s *setupTracer) ([]*client, error) {
	c := gamma.NewRemote(diskN, disklesN, cost.Default())
	r, sRel, oracle, err := uniformPair(seed, s, c, tuple.Unique2)
	if err != nil {
		return nil, err
	}
	var pass []op
	for _, alg := range []core.Algorithm{core.Hybrid, core.Simple, core.HybridDyn} {
		for _, filter := range []bool{false, true} {
			pass = append(pass, op{
				join: &core.Spec{Alg: alg, R: r, S: sRel, RAttr: tuple.Unique1, SAttr: tuple.Unique1,
					MemRatio: 1, BitFilter: filter, StoreResult: true},
				attr:   alg.String(),
				paper:  &experiments.RunKey{Remote: true, Alg: alg, Ratio: 1, Filter: filter},
				oracle: oracle,
			})
		}
	}
	return []*client{{cluster: c, pass: pass}}, nil
}

// skewClients is the client count of skew-update-2c (the host's core count).
const skewClients = 2

// skewShapes are the Table 3 join types a client loads: the first letter is
// the inner relation's join-attribute distribution, the second the outer's
// (U = uniform unique1, N = normal(50000, 750)).
var skewShapes = []string{"NU", "UN", "NN"}

func skewAttr(c byte) int {
	if c == 'N' {
		return tuple.Normal
	}
	return tuple.Unique1
}

// setupSkewUpdate: two clients, each with its own local machine holding
// the paper's skewed pair range-loaded for NU, UN and NN. A client's pass
// is a seeded permutation of every shape x algorithm x memory combination,
// each join preceded by an update of onePercent over a seeded 10% unique2
// range of that join's outer relation.
func setupSkewUpdate(seed uint64, s *setupTracer) ([]*client, error) {
	var clients []*client
	for id := range skewClients {
		cs := seed + 1000*uint64(id)
		c := gamma.NewLocal(diskN, cost.Default())
		outer := s.generate("GenerateSkewed", func() []tuple.Tuple { return wisconsin.GenerateSkewed(outerN, cs+7) })
		inner := s.generate("RandomSubset", func() []tuple.Tuple { return wisconsin.RandomSubset(outer, innerN, cs+11) })

		type loaded struct {
			r, s         *gamma.Relation
			rAttr, sAttr int
			copy         *relCopy
		}
		shapes := make([]loaded, len(skewShapes))
		for i, sh := range skewShapes {
			rAttr, sAttr := skewAttr(sh[0]), skewAttr(sh[1])
			sRel, err := s.load(c, "Askew."+sh, outer, gamma.RangeUniform, sAttr)
			if err != nil {
				return nil, err
			}
			rRel, err := s.load(c, "Bskew."+sh, inner, gamma.RangeUniform, rAttr)
			if err != nil {
				return nil, err
			}
			shapes[i] = loaded{r: rRel, s: sRel, rAttr: rAttr, sAttr: sAttr}
		}

		type combo struct {
			shape int
			alg   core.Algorithm
			ratio float64
		}
		var combos []combo
		for sh := range skewShapes {
			for _, alg := range []core.Algorithm{core.SortMerge, core.Grace, core.Hybrid, core.HybridDyn} {
				for _, ratio := range []float64{1, 1.0 / 4} {
					combos = append(combos, combo{sh, alg, ratio})
				}
			}
		}
		// The oracle copies are the benchmark's own, built on first use
		// so that set-up time covers only generating and loading.
		copyOf := func(sh *loaded) *relCopy {
			if sh.copy == nil {
				sh.copy = newRelCopy(outer)
			}
			return sh.copy
		}
		rng := xrand.New(cs + 13)
		var pass []op
		for _, k := range rng.Perm(len(combos)) {
			cb := combos[k]
			sh := &shapes[cb.shape]
			lo := int32(rng.Intn(outerN - outerN/10 + 1))
			hi, val := lo+outerN/10, int32(rng.Intn(100))
			pass = append(pass,
				op{
					upd:    setOnePercent(sh.s, lo, hi, val),
					attr:   sh.s.Name,
					oracle: func() expect { return expect{count: copyOf(sh).update(lo, hi, val)} },
				},
				op{
					join: &core.Spec{Alg: cb.alg, R: sh.r, S: sh.s, RAttr: sh.rAttr, SAttr: sh.sAttr,
						MemRatio: cb.ratio, StoreResult: true},
					attr:   cb.alg.String(),
					oracle: func() expect { return mapJoin(inner, copyOf(sh), sh.rAttr, sh.sAttr) },
				})
		}
		clients = append(clients, &client{id: id, cluster: c, pass: pass})
	}
	return clients, nil
}

// setOnePercent is the skew workload's update: SET onePercent = val WHERE
// lo <= unique2 < hi.
func setOnePercent(rel *gamma.Relation, lo, hi, val int32) *core.UpdateSpec {
	return &core.UpdateSpec{Rel: rel, SetAttr: tuple.OnePercent, SetVal: val,
		Pred: pred.And{
			pred.Cmp{Attr: tuple.Unique2, Op: pred.GE, Val: lo},
			pred.Cmp{Attr: tuple.Unique2, Op: pred.LT, Val: hi},
		}}
}
