package gamma

import (
	"sort"
	"sync"
	"time"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/netsim"
	"gammajoin/internal/trace"
)

// PhaseStat records the simulated timing of one operator phase.
type PhaseStat struct {
	Name string
	// Work is the slowest site's overlapped resource time.
	Work time.Duration
	// Sched is the scheduling overhead: scheduler latency, control
	// messages, and split-table delivery packets.
	Sched time.Duration
	// PerSite holds each participating site's merged account.
	PerSite map[int]cost.Acct
	// Net snapshots network activity during the phase.
	Net netsim.Counters
}

// Elapsed is the phase's contribution to query response time.
func (p PhaseStat) Elapsed() time.Duration { return p.Work + p.Sched }

// Query accumulates the phases of one query execution. Response time is the
// sum of phase elapsed times: Gamma's operator phases for these join
// algorithms are barrier-synchronized (relations are partitioned serially,
// buckets are joined consecutively).
type Query struct {
	C      *Cluster
	Phases []PhaseStat

	// Trace records every phase onto the simulated-time timeline:
	// NewPhase/End drive its virtual clock in lockstep with the
	// response-time accumulation, End publishes the phase's network and
	// disk activity as per-phase gauges, and Phase.Go opens one span per
	// worker.
	Trace *trace.Recorder
}

// NewQuery starts a query on the cluster, recording onto tr.
func (c *Cluster) NewQuery(tr *trace.Recorder) *Query { return &Query{C: c, Trace: tr} }

// Response returns the accumulated response time.
func (q *Query) Response() time.Duration {
	var total time.Duration
	for _, p := range q.Phases {
		total += p.Elapsed()
	}
	return total
}

// AddDetection charges the failure detector's declaration latency as a
// scheduler-only pseudo-phase: no site does work, but the query clock (and
// the trace timeline) advances by the heartbeat-grid delay between the
// crash and the scheduler declaring the site dead. Both recovery rungs —
// failover and full restart — pay this before reacting.
func (q *Query) AddDetection(name string, delay time.Duration) {
	q.Phases = append(q.Phases, PhaseStat{Name: name, Sched: delay})
	q.Trace.BeginPhase(name)
	q.Trace.EndPhase(0, cost.DurNs(delay))
}

// Phase is one barrier-synchronized operator phase. Go starts its worker
// processes, each with its own account and span at its site; End merges
// the accounts, takes the slowest site, adds scheduling overhead, and
// appends a PhaseStat to the query.
type Phase struct {
	q    *Query
	name string

	mu    sync.Mutex
	accts map[int][]*cost.Acct

	netStart  netsim.Counters
	diskStart disk.Counters
}

// NewPhase begins a phase.
func (q *Query) NewPhase(name string) *Phase {
	p := &Phase{
		q:         q,
		name:      name,
		accts:     make(map[int][]*cost.Acct),
		netStart:  q.C.Net.Counters(),
		diskStart: q.C.DiskCounters(),
	}
	q.Trace.BeginPhase(name)
	return p
}

// Go starts one operator process of the phase — the only way a phase
// worker is started. The logical site's roles run at its live host (after
// a failover, the ring neighbor): fn runs on that host's pooled worker
// with a fresh account registered against the host, traced by exactly one
// span labelled op, role and bucket (-1 when not applicable) that closes
// when fn returns. wg.Done fires after the span is closed. Call Go only
// between the cluster's AcquireRun and ReleaseRun.
func (p *Phase) Go(wg *sync.WaitGroup, site int, op, role string, bucket int, fn func(a *cost.Acct)) {
	wg.Add(1)
	p.q.C.pool.Go(poolTask{site: p.q.C.AliveHost(site), p: p, wg: wg, op: op, role: role, bucket: bucket, fn: fn})
}

// run executes one task submitted by Go on the pool worker.
func (p *Phase) run(t *poolTask) {
	defer t.wg.Done()
	a := p.acct(t.site)
	sp := p.q.Trace.Start(t.site, t.op, t.role, t.bucket)
	defer sp.Close(a)
	t.fn(a)
}

// acct registers and returns a fresh account for one worker running at the
// given site. Each worker must use its own account.
func (p *Phase) acct(site int) *cost.Acct {
	a := &cost.Acct{}
	p.mu.Lock()
	p.accts[site] = append(p.accts[site], a)
	p.mu.Unlock()
	return a
}

// EndOpts describes the scheduling work of a phase.
type EndOpts struct {
	// SplitEntries is the size of the split table shipped to each
	// producing process (0 if none). Tables larger than one network
	// packet are sent in pieces — the paper's low-memory upturn.
	SplitEntries int
	// Producers is the number of processes that receive the split table.
	Producers int
	// ExtraSched adds algorithm-specific scheduling time.
	ExtraSched time.Duration
}

// End closes the phase: all worker goroutines must have finished. It
// returns the phase's elapsed simulated time.
func (p *Phase) End(opts EndOpts) time.Duration {
	m := p.q.C.Model
	p.mu.Lock()
	defer p.mu.Unlock()

	perSite := make(map[int]cost.Acct, len(p.accts))
	var work cost.SimNs
	for site, list := range p.accts {
		var merged cost.Acct
		for _, a := range list {
			merged.Merge(*a)
		}
		// The per-site account list is in registration order, which
		// depends on goroutine scheduling; resource totals are commutative
		// but the merged event list is not. Impose a canonical time order
		// so reports stay byte-identical across runs.
		sort.Slice(merged.Events, func(i, j int) bool {
			ei, ej := merged.Events[i], merged.Events[j]
			if ei.At != ej.At {
				return ei.At < ej.At
			}
			if ei.Kind != ej.Kind {
				return ei.Kind < ej.Kind
			}
			return ei.Detail < ej.Detail
		})
		perSite[site] = merged
		work = max(work, merged.Elapsed())
	}

	// Scheduling: fixed scheduler latency, three control messages per
	// participating process (initiate, ready, done), and split-table
	// delivery packets to each producer, all serialized at the scheduler.
	sched := m.PhaseStartup + cost.ScaleNs(len(p.accts)*3, m.ControlMsg)
	if opts.SplitEntries > 0 && opts.Producers > 0 {
		pkts := m.SplitTablePackets(opts.SplitEntries)
		sched += cost.ScaleNs(pkts*opts.Producers, m.PacketProto+m.PacketWire)
	}
	sched += cost.DurNs(opts.ExtraSched)

	stat := PhaseStat{
		Name:    p.name,
		Work:    work.Dur(),
		Sched:   sched.Dur(),
		PerSite: perSite,
		Net:     p.q.C.Net.Counters().Sub(p.netStart),
	}
	p.q.Phases = append(p.q.Phases, stat)

	// Publish the phase's cluster-wide activity as per-phase gauges, then
	// advance the virtual clock by the phase's elapsed time. The gauges
	// read the same counters the PhaseStat snapshots — tracing observes
	// the cost model, it never feeds back into it.
	tr := p.q.Trace
	mm := tr.Metrics()
	mm.Gauge("net.tuples.local").Set(stat.Net.TuplesLocal.Count())
	mm.Gauge("net.tuples.remote").Set(stat.Net.TuplesRemote.Count())
	mm.Gauge("net.packets.local").Set(stat.Net.PacketsLocal)
	mm.Gauge("net.packets.remote").Set(stat.Net.PacketsRemote)
	mm.Gauge("net.bytes.wire").Set(stat.Net.BytesOnWire.Count())
	mm.Gauge("net.packets.retransmitted").Set(stat.Net.PacketsRetransmitted)
	mm.Gauge("net.packets.duplicated").Set(stat.Net.PacketsDuplicated)
	dd := p.q.C.DiskCounters().Sub(p.diskStart)
	mm.Gauge("disk.pages.read").Set(dd.PagesRead.Count())
	mm.Gauge("disk.pages.written").Set(dd.PagesWritten.Count())
	mm.Gauge("disk.read.retries").Set(dd.ReadRetries)
	mm.Gauge("disk.file.switches").Set(dd.FileSwitches)
	mm.Gauge("disk.mirror.reads").Set(dd.MirrorReads.Count())
	mm.Gauge("disk.mirror.writes").Set(dd.MirrorWrites.Count())
	tr.EndPhase(work, sched)
	return stat.Elapsed()
}

// Exchange is the per-phase communication fabric: one locked packet mailbox
// per site. Producers deliver through it (via netsim.Sender, which batches
// consecutive same-destination packets into runs); consumers block until the
// coordinator closes the exchange, then take their site's accumulated
// packets in delivery order. The mailbox shape exploits what consumers
// already do — every drain sorts the complete packet set by (Src, Seq)
// before processing, so nothing is lost by handing packets over only at the
// barrier, and delivery never blocks a producer. Run granularity remains a
// wall-clock transport optimization only — receive-side accounting stays
// per packet (netsim.Network.Recv).
type Exchange struct {
	sites []exStream
	done  chan struct{}
}

type exStream struct {
	mu      sync.Mutex
	batches []*netsim.Batch
}

// NewExchange returns an exchange with a mailbox for every site, reusing a
// pooled one (and its per-site backing arrays) when available. Callers hand
// exchanges back with PutExchange once every consumer has finished.
func (c *Cluster) NewExchange() *Exchange {
	c.exMu.Lock()
	if n := len(c.exPool); n > 0 {
		e := c.exPool[n-1]
		c.exPool = c.exPool[:n-1]
		c.exMu.Unlock()
		e.done = make(chan struct{})
		return e
	}
	c.exMu.Unlock()
	return &Exchange{sites: make([]exStream, len(c.Sites)), done: make(chan struct{})}
}

// PutExchange recycles an exchange for a later phase. Only call it when no
// consumer can still be reading the slices Take handed out — in practice,
// after the consuming workers' barrier. The packet pointers themselves are
// recycled separately (netsim.PutBatches) by the consumers.
func (c *Cluster) PutExchange(e *Exchange) {
	for i := range e.sites {
		e.sites[i].batches = e.sites[i].batches[:0]
	}
	c.exMu.Lock()
	c.exPool = append(c.exPool, e)
	c.exMu.Unlock()
}

// Deliver appends a run of packets to its destination site's mailbox in
// arrival order (run slices are recycled here). It never blocks beyond the
// mailbox lock.
func (e *Exchange) Deliver(dst int, run []*netsim.Batch) {
	st := &e.sites[dst]
	st.mu.Lock()
	st.batches = append(st.batches, run...)
	st.mu.Unlock()
	netsim.PutRun(run)
}

// Take blocks until the exchange is closed, then returns every packet
// delivered to the site, in delivery order. The returned slice is owned by
// the exchange and valid until PutExchange.
func (e *Exchange) Take(site int) []*netsim.Batch {
	<-e.done
	st := &e.sites[site]
	st.mu.Lock()
	b := st.batches
	st.mu.Unlock()
	return b
}

// Close signals end-of-stream to every consumer blocked in Take. All
// deliveries must have happened before (the producers' barrier precedes the
// coordinator's Close).
func (e *Exchange) Close() { close(e.done) }
