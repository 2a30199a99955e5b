// Package netsim simulates Gamma's 80 Mbit/s token-ring interconnect at
// packet granularity. Tuples travelling between operator processes are
// buffered into 2 KB packets per destination; packets between processes on
// the same site are "short-circuited" by the communications software —
// they skip the wire and most of the protocol stack but still cost CPU
// (the paper stresses that this protocol cost cannot be ignored).
//
// Transport batching: packets are the unit of *accounting* (every packet is
// charged, sequenced, and exposed to the fault injector exactly as before),
// but the unit of *delivery* is a run — up to Network.RunLength consecutive
// packets to the same destination handed to the exchange in one operation.
// Runs exist purely to cut wall-clock overhead (channel operations,
// per-packet allocation); they are invisible to the simulated cost model,
// and RunLength 1 reproduces the legacy packet-at-a-time delivery bit for
// bit (see SetRunLength).
package netsim

import (
	"sync"
	"sync/atomic"

	"gammajoin/internal/cost"
	"gammajoin/internal/fault"
	"gammajoin/internal/tuple"
)

// Counters is a snapshot of network activity. Tuple and wire-byte traffic
// is typed (cost.Tuples, cost.Bytes); packet tallies are bare event counts.
type Counters struct {
	PacketsLocal  int64
	PacketsRemote int64
	TuplesLocal   cost.Tuples
	TuplesRemote  cost.Tuples
	BytesOnWire   cost.Bytes

	// Fault accounting: remote packets re-sent after an injected drop, and
	// spurious duplicate copies delivered (and discarded by the receiver).
	PacketsRetransmitted int64
	PacketsDuplicated    int64
}

// Sub returns c - o.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		PacketsLocal:  c.PacketsLocal - o.PacketsLocal,
		PacketsRemote: c.PacketsRemote - o.PacketsRemote,
		TuplesLocal:   c.TuplesLocal - o.TuplesLocal,
		TuplesRemote:  c.TuplesRemote - o.TuplesRemote,
		BytesOnWire:   c.BytesOnWire - o.BytesOnWire,

		PacketsRetransmitted: c.PacketsRetransmitted - o.PacketsRetransmitted,
		PacketsDuplicated:    c.PacketsDuplicated - o.PacketsDuplicated,
	}
}

// LocalFraction reports the fraction of tuples that short-circuited the
// network (the paper's Table 2 metric).
func (c Counters) LocalFraction() float64 {
	total := c.TuplesLocal + c.TuplesRemote
	if total == 0 {
		return 0
	}
	return float64(c.TuplesLocal.Count()) / float64(total.Count())
}

// DefaultRunLength is the delivery-run size (in packets) used by networks
// that have not been tuned with SetRunLength. Thirty-two packets is sixteen
// disk pages of tuple payload — long enough to amortize the per-delivery
// channel operation into noise, short enough that a run is a few tens of
// kilobytes.
const DefaultRunLength = 32

// Network carries packets between sites and accounts for them.
type Network struct {
	model *cost.Model

	// runLen is the delivery-run size in packets (see the package comment).
	// It is set at cluster construction or between queries, never while
	// senders are live.
	runLen int

	packetsLocal  atomic.Int64
	packetsRemote atomic.Int64
	tuplesLocal   atomic.Int64
	tuplesRemote  atomic.Int64
	bytesOnWire   atomic.Int64

	packetsRetransmitted atomic.Int64
	packetsDuplicated    atomic.Int64

	faults *fault.Registry
}

// SetFaults attaches a fault registry; remote packet sends consult it for
// drops (retransmission) and duplication. Call at cluster setup, before
// the network is shared (gamma.Cluster.EnableFaults does this).
func (n *Network) SetFaults(r *fault.Registry) { n.faults = r }

// SetRunLength sets the delivery-run size in packets. Length 1 restores the
// legacy packet-at-a-time delivery; larger lengths only change how many
// packets travel per exchange operation, never what is charged. Call
// between queries; the serial-vs-batched equivalence tests set it on each
// cluster they build.
func (n *Network) SetRunLength(packets int) {
	if packets < 1 {
		packets = 1
	}
	n.runLen = packets
}

// RunLength returns the current delivery-run size in packets.
func (n *Network) RunLength() int { return n.runLen }

// New returns a network using cost model m.
func New(m *cost.Model) *Network { return &Network{model: m, runLen: DefaultRunLength} }

// DetectionDelay is the failure detector: given the simulated instant `at`
// when a site went silent, it returns how long the scheduler waits before
// declaring the site dead. Heartbeats tick on a fixed grid (every
// Model.Heartbeat ns since time zero), the detector tolerates
// Model.HeartbeatMisses missed beats, and the fault registry may charge
// extra confirmation beats (DetectJitterRate) — so the declaration lands on
// a deterministic grid instant strictly after the crash.
func (n *Network) DetectionDelay(site int, at cost.SimNs) cost.SimNs {
	hb := n.model.Heartbeat
	if hb <= 0 {
		return 0
	}
	beats := int64(n.model.HeartbeatMisses + n.faults.DetectExtraBeats(site))
	grid := at.Nanoseconds() / hb.Nanoseconds() // whole heartbeat periods elapsed
	declaredAt := cost.ScaleNs(grid+beats, hb)
	if declaredAt <= at {
		declaredAt += hb
	}
	return declaredAt - at
}

// Counters returns a snapshot of the network counters.
func (n *Network) Counters() Counters {
	return Counters{
		PacketsLocal:  n.packetsLocal.Load(),
		PacketsRemote: n.packetsRemote.Load(),
		TuplesLocal:   cost.Tuples(n.tuplesLocal.Load()),
		TuplesRemote:  cost.Tuples(n.tuplesRemote.Load()),
		BytesOnWire:   cost.Bytes(n.bytesOnWire.Load()),

		PacketsRetransmitted: n.packetsRetransmitted.Load(),
		PacketsDuplicated:    n.packetsDuplicated.Load(),
	}
}

// Batch is one packet's worth of traffic addressed to one operator stream:
// either a run of tuple references (the embedded tuple.Batch) or, on the
// result stream, a count of composite result tuples. Neither form carries a
// copy of a row — the simulated copy into the packet is charged per tuple
// by the Sender, and the host copy would add nothing to it. Batches are
// recycled through a package arena: receivers hand processed batches back
// via PutBatches, so steady-state packet traffic allocates nothing.
type Batch struct {
	Src   int   // producing site
	Dst   int   // destination site
	Local bool  // short-circuited (Src == Dst)
	Tag   int   // stream tag, interpreted by the consumer (e.g. overflow)
	Seq   int64 // per-sender sequence number, for deterministic replay

	tuple.Batch     // tuple references + parallel join-attribute Hashes
	Results     int // composite result tuples in the packet (payload-free)

	// Dups is how many spurious duplicate copies of this packet the
	// (faulted) network delivered; the receiver charges protocol CPU to
	// detect and discard each one.
	Dups int
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Tuples) + b.Results }

// reset empties the batch for reuse, keeping the backing arrays.
func (b *Batch) reset() {
	b.Batch.Reset()
	b.Results = 0
	b.Dups = 0
	b.Seq = 0
}

// batchPool recycles packet batches across senders, phases, and queries.
// Buffer capacities are sized lazily by the senders (capT tuple references),
// so a recycled batch's arrays are already full-size.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// getBatch returns an empty batch from the package arena.
func getBatch() *Batch { return batchPool.Get().(*Batch) }

// PutBatch recycles one batch. The caller must not touch it afterwards. The
// batch is emptied on the way in, so an idle pooled batch holds no tuple
// references.
func PutBatch(b *Batch) {
	if b != nil {
		b.reset()
		batchPool.Put(b)
	}
}

// PutBatches recycles every batch in the slice. Receivers call it once they
// are done with the batches (consumed batches must never be retained).
func PutBatches(bs []*Batch) {
	for _, b := range bs {
		PutBatch(b)
	}
}

// runPool recycles the []*Batch run slices that travel through exchanges.
var runPool = sync.Pool{New: func() any { return make([]*Batch, 0, DefaultRunLength) }}

func getRun() []*Batch { return runPool.Get().([]*Batch)[:0] }

// PutRun recycles a delivery-run slice (not the batches inside it).
func PutRun(run []*Batch) {
	if run != nil {
		runPool.Put(run[:0]) //nolint:staticcheck // slice header round-trips through any
	}
}

// Recv charges the receive-side protocol cost for one batch to a.
// Consumers call it once per batch before processing the tuples.
func (n *Network) Recv(a *cost.Acct, b *Batch) {
	if b.Local {
		a.AddCPU(n.model.PacketProtoLocal)
	} else {
		a.AddCPU(n.model.PacketProto)
	}
	// Each duplicate copy costs a protocol pass to recognise the repeated
	// sequence number and drop the payload.
	for i := 0; i < b.Dups; i++ {
		a.AddCPU(n.model.PacketProto)
	}
}

type streamKey struct {
	dst int
	tag int
}

// Sender buffers outgoing tuples into per-destination packets on behalf of
// one producing process, and full packets into per-destination delivery
// runs. It is single-goroutine; create one per producer.
//
// The per-stream buffers are organized as dense destination-indexed slices
// per tag, with the current tag's slice cached: operator inner loops send
// long stretches of tuples under one tag while scattering across
// destinations, so the per-tuple stream lookup is one bounds check and one
// slice index instead of a map probe on a two-field key.
type Sender struct {
	net    *Network
	a      *cost.Acct
	src    int
	out    func(dst int, run []*Batch)
	capT   int        // plain tuples per packet
	capJ   int        // result tuples per packet
	wtNs   cost.SimNs // cached model.WriteTuple (hot: charged once per tuple sent)
	runLen int        // packets per delivery run
	seq    int64

	curTag  int
	cur     []*Batch         // destination-indexed buffers for curTag
	byTag   map[int][]*Batch // all tags' buffer slices (cur is byTag[curTag])
	order   []streamKey      // stream first-write order, for deterministic FlushAll
	pending [][]*Batch       // destination-indexed delivery runs being filled
	pdsts   []int            // destinations with a pending slot, first-use order
	pmark   map[int]struct{} // membership set for pdsts

	// colocated, when non-nil, overrides the short-circuit test: after a
	// failover moves a dead site's roles to its ring neighbor, streams
	// between logical sites hosted on the same physical site short-circuit
	// even though their logical ids differ. Batch.Src/Dst stay logical —
	// the consumer-side (Src, Seq) replay order and the fault schedule's
	// packet coordinates must not depend on where roles physically run.
	colocated func(dst int) bool
}

// SetColocated installs the physical-colocation predicate. Call before the
// first Send; the runner does this at phase launch once any site is dead.
func (s *Sender) SetColocated(p func(dst int) bool) { s.colocated = p }

// local reports whether a packet to dst short-circuits the wire.
func (s *Sender) local(dst int) bool {
	if s.colocated != nil {
		return s.colocated(dst)
	}
	return dst == s.src
}

// senderPool recycles Sender objects — and, importantly, their per-tag
// stream directories and pending-run arrays — across phase workers. A query
// creates a sender per worker per phase, so without pooling these small
// arrays dominate the allocation profile.
var senderPool = sync.Pool{New: func() any { return new(Sender) }}

// NewSender creates a sender for producing site src. Every full delivery
// run is handed to deliver, which typically enqueues it on the destination
// site's mailbox for the current phase. Call Release when the producer is
// done (after FlushAll) to recycle the sender.
func (n *Network) NewSender(a *cost.Acct, src int, deliver func(dst int, run []*Batch)) *Sender {
	rl := n.runLen
	if rl < 1 {
		rl = 1
	}
	s := senderPool.Get().(*Sender)
	s.net, s.a, s.src, s.out = n, a, src, deliver
	s.capT = n.model.TuplesPerPacket(tuple.Bytes)
	s.capJ = n.model.TuplesPerPacket(tuple.JoinedBytes)
	s.wtNs = n.model.WriteTuple
	s.runLen = rl
	s.seq = 0
	s.curTag = int(^uint(0) >> 1) // no current tag yet
	s.cur = nil
	s.colocated = nil
	return s
}

// Release recycles the sender. Call only after FlushAll, when no packet can
// still be buffered; any stragglers (a cancelled worker's partial buffers)
// are recycled, not delivered. The caller must not use the sender again.
func (s *Sender) Release() {
	if s.cur != nil {
		s.byTag[s.curTag] = s.cur
	}
	for _, bufs := range s.byTag {
		for i, b := range bufs {
			if b != nil {
				PutBatch(b)
				bufs[i] = nil
			}
		}
	}
	for _, dst := range s.pdsts {
		if dst < len(s.pending) && s.pending[dst] != nil {
			PutRun(s.pending[dst])
			s.pending[dst] = nil
		}
	}
	s.order = s.order[:0]
	s.pdsts = s.pdsts[:0]
	for dst := range s.pmark {
		delete(s.pmark, dst)
	}
	s.cur = nil
	s.a, s.out, s.colocated = nil, nil, nil
	senderPool.Put(s)
}

// buffer returns the packet under construction for stream (dst, tag),
// creating (and recording in first-write order) an empty one if needed.
func (s *Sender) buffer(dst, tag int) *Batch {
	if tag != s.curTag {
		if s.byTag == nil {
			s.byTag = make(map[int][]*Batch)
		} else if s.cur != nil {
			s.byTag[s.curTag] = s.cur
		}
		s.cur = s.byTag[tag]
		s.curTag = tag
	}
	if dst >= len(s.cur) {
		grown := make([]*Batch, dst+1)
		copy(grown, s.cur)
		s.cur = grown
		s.byTag[tag] = grown
	}
	b := s.cur[dst]
	if b == nil {
		b = getBatch()
		b.Src, b.Dst, b.Local, b.Tag = s.src, dst, s.local(dst), tag
		s.cur[dst] = b
		s.order = append(s.order, streamKey{dst, tag})
	}
	return b
}

// Send routes one tuple (with its precomputed join-attribute hash) to the
// stream (dst, tag), charging the copy into the outgoing packet. Only the
// reference travels: t must stay valid and unmodified until the receiving
// phase reaches its barrier (base and temp-file pages, hash-table eviction
// slices, and worker-owned scratch all do — see DESIGN.md §6).
func (s *Sender) Send(dst, tag int, t *tuple.Tuple, h uint64) {
	s.a.AddCPU(s.wtNs)
	b := s.buffer(dst, tag)
	if cap(b.Tuples) == 0 {
		b.Tuples = make([]*tuple.Tuple, 0, s.capT)
		b.Hashes = make([]uint64, 0, s.capT)
	}
	b.Append(t, h)
	if len(b.Tuples) >= s.capT {
		s.flush(b)
	}
}

// SendResult routes one composite join-result tuple to the stream (dst,
// tag). The store operator only counts result tuples, so the packet carries
// no payload — but the per-tuple copy is charged and a packet fills after
// TuplesPerPacket(JoinedBytes) results, exactly as if the 416-byte
// composites were on board.
func (s *Sender) SendResult(dst, tag int) {
	s.a.AddCPU(s.wtNs)
	b := s.buffer(dst, tag)
	b.Results++
	if b.Results >= s.capJ {
		s.flush(b)
	}
}

// flush seals one packet: it is sequenced, charged (protocol, wire, fault
// rolls) exactly as a packet, then appended to its destination's delivery
// run. The stream's buffer slot is cleared so the next Send starts a fresh
// packet. Accounting here is per packet and unchanged by run batching.
func (s *Sender) flush(b *Batch) {
	m := s.net.model
	s.seq++
	b.Seq = s.seq
	nt := int64(b.Len())
	if b.Local {
		s.a.AddCPU(m.PacketProtoLocal)
		s.net.packetsLocal.Add(1)
		s.net.tuplesLocal.Add(nt)
	} else {
		s.a.AddCPU(m.PacketProto)
		s.a.AddNet(m.PacketWire)
		s.net.packetsRemote.Add(1)
		s.net.tuplesRemote.Add(nt)
		s.net.bytesOnWire.Add(int64(m.P.PacketBytes))

		// Fault injection applies to the wire only, so short-circuited
		// local packets are exempt, matching the paper's protocol split.
		retrans, dups := s.net.faults.PacketFate(b.Src, b.Dst, b.Tag, b.Seq)
		for i := 0; i < retrans; i++ {
			s.a.AddCPU(m.PacketProto)
			s.a.AddNet(m.PacketWire)
			s.net.packetsRetransmitted.Add(1)
			s.net.bytesOnWire.Add(int64(m.P.PacketBytes))
		}
		if retrans > 0 {
			s.a.Note("net.retransmit", int64(retrans))
		}
		if dups > 0 {
			b.Dups = dups
			s.a.AddNet(cost.ScaleNs(dups, m.PacketWire))
			s.net.packetsDuplicated.Add(int64(dups))
			s.net.bytesOnWire.Add(int64(dups) * int64(m.P.PacketBytes))
			s.a.Note("net.duplicate", int64(dups))
		}
	}

	// Clear the stream slot (the tag is always the cached one here: flush is
	// only reached from Send/SendResult/FlushAll right after buffer()).
	s.cur[b.Dst] = nil

	// Delivery: append to the destination's run; hand the run over when it
	// reaches the configured length.
	dst := b.Dst
	if s.runLen <= 1 {
		run := getRun()
		s.out(dst, append(run, b))
		return
	}
	if dst >= len(s.pending) {
		grown := make([][]*Batch, dst+1)
		copy(grown, s.pending)
		s.pending = grown
	}
	if s.pending[dst] == nil {
		s.pending[dst] = getRun()
		if s.pmark == nil {
			s.pmark = make(map[int]struct{})
		}
		if _, seen := s.pmark[dst]; !seen {
			s.pmark[dst] = struct{}{}
			s.pdsts = append(s.pdsts, dst)
		}
	}
	s.pending[dst] = append(s.pending[dst], b)
	if len(s.pending[dst]) >= s.runLen {
		s.out(dst, s.pending[dst])
		s.pending[dst] = nil
	}
}

// FlushAll sends every partially filled packet, in the deterministic order
// the streams were first written, then delivers every pending run. Call
// once when the producer's input stream ends (Gamma's end-of-stream close).
func (s *Sender) FlushAll() {
	for _, k := range s.order {
		bufs := s.byTag[k.tag]
		if k.tag == s.curTag {
			bufs = s.cur
		}
		if k.dst < len(bufs) {
			if b := bufs[k.dst]; b != nil {
				if b.Len() > 0 {
					// flush expects the stream's tag to be the cached one so
					// it can clear the slot through s.cur.
					if k.tag != s.curTag {
						s.byTag[s.curTag] = s.cur
						s.cur = s.byTag[k.tag]
						s.curTag = k.tag
					}
					s.flush(b)
				} else {
					PutBatch(b)
					bufs[k.dst] = nil
				}
			}
		}
	}
	s.order = s.order[:0]
	for _, dst := range s.pdsts {
		if run := s.pending[dst]; run != nil {
			s.out(dst, run)
			s.pending[dst] = nil
		}
	}
}
