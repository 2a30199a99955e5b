package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"gammajoin/internal/core"
	"gammajoin/internal/walltime"
)

// minJoins is the fewest joins a timed phase completes, so that its p90
// latency has at least ten samples beyond it.
const minJoins = 100

// counts are the simulator's exact counts over one pass of a client: the
// first pass of a timed phase. They repeat exactly for a seed, so a
// host-only change must leave them unchanged.
type counts struct {
	ops, joins                  int
	simS                        float64
	pagesRead, pagesWritten     float64
	packetsRemote, packetsLocal float64
	tuplesRemote                float64
	formingLocal, formingTotal  float64
	phases, results             float64
	sortPasses                  float64
	rOverflowed, rTuples        float64
	filterDropped, sTuples      float64
	chainMax                    int
	opSimS                      []float64 // per op of the pass, in pass order
}

func (c *counts) add(o counts) {
	c.ops += o.ops
	c.joins += o.joins
	c.simS += o.simS
	c.pagesRead += o.pagesRead
	c.pagesWritten += o.pagesWritten
	c.packetsRemote += o.packetsRemote
	c.packetsLocal += o.packetsLocal
	c.tuplesRemote += o.tuplesRemote
	c.formingLocal += o.formingLocal
	c.formingTotal += o.formingTotal
	c.phases += o.phases
	c.results += o.results
	c.sortPasses += o.sortPasses
	c.rOverflowed += o.rOverflowed
	c.rTuples += o.rTuples
	c.filterDropped += o.filterDropped
	c.sTuples += o.sTuples
	c.chainMax = max(c.chainMax, o.chainMax)
	c.opSimS = append(c.opSimS, o.opSimS...)
}

// tally is what one client observed over a phase.
type tally struct {
	attempted, failed int
	joinMs, updMs     []float64
	first             counts // the phase's first pass
	failures          []string
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.joinMs = append(t.joinMs, o.joinMs...)
	t.updMs = append(t.updMs, o.updMs...)
	t.first.add(o.first)
	t.failures = append(t.failures, o.failures...)
}

func (t *tally) verified() int { return t.attempted - t.failed }

// runner drives the clients' passes and owns their span logs.
type runner struct {
	clients []*client
	logs    []*spanLog // per client; nil entries when untraced
	nextOp  []int
	done    atomic.Int64 // verified operations, all clients
	joins   atomic.Int64 // verified joins, all clients

	// active counts the clients still running passes. Latencies are
	// sampled only while every client is, so that the tail in which one
	// client finishes its last pass alone does not skew them.
	active atomic.Int32
}

// mark reads the process counters at a pass boundary of client 0.
type mark struct {
	at             time.Time
	cpu            time.Duration
	allocB, allocN uint64
	ops            int64
}

var allocMetrics = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/heap/tiny/allocs:objects"}

func (r *runner) mark() mark {
	s := make([]metrics.Sample, len(allocMetrics))
	for i, n := range allocMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	m := mark{at: walltime.Now(), cpu: cpuTime(), ops: r.done.Load()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		m.allocB = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 && s[2].Value.Kind() == metrics.KindUint64 {
		m.allocN = s[1].Value.Uint64() + s[2].Value.Uint64()
	}
	return m
}

// rates are per-interval medians over the marks of a timed phase: each
// interval is one pass of client 0, during which every client's completed
// operations count. Medians keep one slow pass (a GC cycle, a noisy
// neighbour) from moving a run's figure.
type rates struct {
	qps, cpuS, allocB, allocN float64 // per second; the rest per operation
}

func intervalRates(marks []mark) rates {
	var qps, cpu, ab, an []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		ops := float64(b.ops - a.ops)
		if ops == 0 {
			continue
		}
		qps = append(qps, ops/b.at.Sub(a.at).Seconds())
		cpu = append(cpu, (b.cpu-a.cpu).Seconds()/ops)
		ab = append(ab, float64(b.allocB-a.allocB)/ops)
		an = append(an, float64(b.allocN-a.allocN)/ops)
	}
	return rates{median(qps), median(cpu), median(ab), median(an)}
}

// runPass runs one pass of c's operations in order, each only after the
// previous one returned, and checks every result. want selects the
// warm-up (0) or steady-state (1) expectations; first records counts.
func (r *runner) runPass(ci int, passNo, want int, first bool, t *tally) {
	c, log := r.clients[ci], r.logs[ci]
	root := log.begin(0, 0, "bench", fmt.Sprintf("client%d/pass%d", c.id, passNo), "")
	rootID := log.id(root)
	var cnt counts
	for i := range c.pass {
		o := &c.pass[i]
		r.nextOp[ci]++
		opID := c.id*100_000_000 + r.nextOp[ci]
		t.attempted++

		var (
			rep  *core.Report
			urep *core.OpReport
			err  error
		)
		name := "core.Run"
		if o.upd != nil {
			name = "core.RunUpdate"
		}
		sp := log.begin(opID, rootID, "core", name, o.attr)
		start := walltime.Now()
		if o.upd != nil {
			urep, err = core.RunUpdate(c.cluster, *o.upd)
		} else {
			rep, err = core.Run(c.cluster, *o.join)
		}
		ms := float64(walltime.Since(start).Nanoseconds()) / 1e6
		log.end(sp)

		sp = log.begin(opID, rootID, "gamma", "gamma.LiveTempFiles", "")
		live := c.cluster.LiveTempFiles()
		log.end(sp)

		var got expect
		switch {
		case rep != nil:
			got = expect{count: rep.ResultCount, sum: rep.ResultSum}
		case urep != nil:
			got = expect{count: urep.Rows}
		}
		var bad string
		switch {
		case err != nil:
			bad = err.Error()
		case len(live) > 0:
			bad = fmt.Sprintf("%d temp files live after the operation: %v", len(live), live)
		case got != o.want[want]:
			bad = fmt.Sprintf("got count %d sum %#x, oracle says count %d sum %#x",
				got.count, got.sum, o.want[want].count, o.want[want].sum)
		}
		if bad != "" {
			t.failed++
			if len(t.failures) < 5 {
				t.failures = append(t.failures, fmt.Sprintf("client %d pass %d op %d (%s %s): %s",
					c.id, passNo, i, name, o.attr, bad))
			}
			continue
		}
		r.done.Add(1)
		full := int(r.active.Load()) == len(r.clients)
		switch {
		case rep != nil:
			r.joins.Add(1)
			if full {
				t.joinMs = append(t.joinMs, ms)
			}
		case full:
			t.updMs = append(t.updMs, ms)
		}
		if first {
			cnt.record(o, rep, urep)
		}
	}
	log.end(root)
	if first {
		t.first.add(cnt)
	}
}

// record adds one verified operation's report to the pass counts.
func (c *counts) record(o *op, rep *core.Report, urep *core.OpReport) {
	c.ops++
	if urep != nil {
		c.simS += urep.Response.Seconds()
		c.opSimS = append(c.opSimS, urep.Response.Seconds())
		c.pagesRead += float64(urep.Disk.PagesRead.Count())
		c.pagesWritten += float64(urep.Disk.PagesWritten.Count())
		c.packetsRemote += float64(urep.Net.PacketsRemote)
		c.packetsLocal += float64(urep.Net.PacketsLocal)
		c.tuplesRemote += float64(urep.Net.TuplesRemote.Count())
		c.phases += float64(len(urep.Phases))
		return
	}
	c.joins++
	c.simS += rep.Response.Seconds()
	c.opSimS = append(c.opSimS, rep.Response.Seconds())
	c.pagesRead += float64(rep.Disk.PagesRead.Count())
	c.pagesWritten += float64(rep.Disk.PagesWritten.Count())
	c.packetsRemote += float64(rep.Net.PacketsRemote)
	c.packetsLocal += float64(rep.Net.PacketsLocal)
	c.tuplesRemote += float64(rep.Net.TuplesRemote.Count())
	c.formingLocal += float64(rep.Forming.TuplesLocal.Count())
	c.formingTotal += float64((rep.Forming.TuplesLocal + rep.Forming.TuplesRemote).Count())
	c.phases += float64(len(rep.Phases))
	c.results += float64(rep.ResultCount)
	c.sortPasses += float64(rep.SortPassesR + rep.SortPassesS)
	c.rOverflowed += float64(rep.ROverflowed)
	c.rTuples += float64(o.join.R.N)
	c.filterDropped += float64(rep.FilterDropped)
	c.sTuples += float64(o.join.S.N)
	c.chainMax = max(c.chainMax, rep.MaxChain)
}

// warmUp runs one untimed pass on every client at once.
func (r *runner) warmUp() *tally {
	return r.each(func(ci int, t *tally) { r.runPass(ci, 0, 0, false, t) })
}

// timed runs whole passes on every client at once until seconds have
// passed and at least minJoins joins completed (or the hard stop is
// reached). It returns the merged tally, the phase's host seconds, and
// the marks client 0 took at its pass boundaries.
func (r *runner) timed(seconds float64, hardStop time.Time) (*tally, float64, []mark) {
	var marks []mark
	r.joins.Store(0)
	start := walltime.Now()
	t := r.each(func(ci int, t *tally) {
		for pass := 1; ; pass++ {
			if ci == 0 {
				marks = append(marks, r.mark())
			}
			el := walltime.Since(start).Seconds()
			done := pass > 1 && el >= seconds && r.joins.Load() >= minJoins
			if done || (pass > 1 && walltime.Now().After(hardStop)) {
				return
			}
			r.runPass(ci, pass, 1, pass == 1, t)
		}
	})
	return t, walltime.Since(start).Seconds(), marks
}

// each runs f once per client, concurrently, waits for all of them, and
// merges their tallies in client order.
func (r *runner) each(f func(ci int, t *tally)) *tally {
	tallies := make([]*tally, len(r.clients))
	var wg sync.WaitGroup
	r.active.Store(int32(len(r.clients)))
	for ci := range r.clients {
		tallies[ci] = &tally{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(ci, tallies[ci])
			r.active.Add(-1)
		}()
	}
	wg.Wait()
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	for _, f := range total.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	return total
}
