// Package gamma models the Gamma database machine substrate: a
// shared-nothing cluster of processor sites (with or without attached
// disks), phase-structured query execution with per-site time accounting,
// the relation catalog with Gamma's declustering strategies, and the
// histogram-driven hash-table overflow machinery shared by the hash-join
// algorithms.
package gamma

import (
	"fmt"
	"sort"
	"sync"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/fault"
	"gammajoin/internal/netsim"
	"gammajoin/internal/trace"
)

// Site is one processor of the machine. Sites with an attached disk store
// relation fragments and execute selections; diskless sites can execute
// joins (the paper's "remote" configuration).
type Site struct {
	ID   int
	Disk *disk.Disk // nil for diskless processors
}

// HasDisk reports whether the site has an attached disk.
func (s *Site) HasDisk() bool { return s.Disk != nil }

// Cluster is a Gamma machine configuration.
type Cluster struct {
	Model *cost.Model
	Net   *netsim.Network
	Sites []*Site

	// Faults is the fault-injection registry wired into every physical
	// component by EnableFaults; nil when the cluster runs fault-free.
	Faults *fault.Registry

	diskSites     []int
	disklessSites []int

	// mirrored records that EnableMirrors chained every disk to its ring
	// neighbor; until then the failover rung of the recovery ladder is
	// unavailable and crashes escalate straight to a query restart.
	mirrored bool

	// hosts maps each logical site to the site currently executing its
	// roles: the identity map while every site is alive, redirected to the
	// ring successor for sites marked dead. It is mutated only between
	// phases (MarkDead/ReviveAll at barriers), so lock-free reads from
	// worker goroutines are ordered by the goroutine launch/join edges.
	hosts []int
	dead  []bool

	// tempLive is the ledger of live temp-file names: internal/core
	// registers each temp wiss file at creation and drops all of them on
	// every Run exit path (success, restart, cancellation). Tests assert
	// it drains to empty — the cancellation-hygiene contract. Guarded by
	// its own mutex because registration happens between phases while
	// other bookkeeping may be concurrent.
	tempMu   sync.Mutex
	tempLive map[string]struct{}

	// exPool recycles phase exchanges (and their per-site mailbox arrays);
	// see NewExchange/PutExchange.
	exMu   sync.Mutex
	exPool []*Exchange

	// runMu serializes whole-query executions on this cluster. The shared
	// physical state — network and disk counters, the fault registry's
	// phase/packet coordinates, the host map — is scoped per query by
	// snapshot-diffing and ReviveAll, which is only sound if queries do not
	// overlap. The workload engine (internal/sched) may run joins from
	// several goroutines; AcquireRun makes core.Run re-entrant by turning
	// overlap into a queue instead of a data race.
	runMu sync.Mutex

	// pool is the per-site worker-goroutine pool phase workers run on. Its
	// tenure is one AcquireRun..ReleaseRun span: workers persist across all
	// of a query's phases (and restart attempts) and are drained when the
	// run lock is released.
	pool workerPool
}

// AcquireRun takes the cluster's whole-query execution lock. Callers must
// pair it with ReleaseRun; core.Run does this automatically.
func (c *Cluster) AcquireRun() { c.runMu.Lock() }

// ReleaseRun drains the phase-worker pool — joining every pooled goroutine,
// so a finished query leaves a quiescent process — and releases the lock
// taken by AcquireRun.
func (c *Cluster) ReleaseRun() {
	c.pool.drain()
	c.runMu.Unlock()
}

// RegisterTempFile records a temp wiss file as live. internal/core calls it
// from newTempFile; the name must be the file's full registered name.
func (c *Cluster) RegisterTempFile(name string) {
	c.tempMu.Lock()
	if c.tempLive == nil {
		c.tempLive = make(map[string]struct{})
	}
	c.tempLive[name] = struct{}{}
	c.tempMu.Unlock()
}

// DropTempFile deletes a temp file from the live ledger. Dropping a name
// that is not live is a no-op.
func (c *Cluster) DropTempFile(name string) {
	c.tempMu.Lock()
	delete(c.tempLive, name)
	c.tempMu.Unlock()
}

// LiveTempFiles returns the names of temp files registered but not yet
// dropped, sorted. Empty whenever no query is mid-flight — including after
// a canceled or shed query, which is what the cancellation-hygiene tests
// assert.
func (c *Cluster) LiveTempFiles() []string {
	c.tempMu.Lock()
	defer c.tempMu.Unlock()
	names := make([]string, 0, len(c.tempLive))
	for n := range c.tempLive {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EnableFaults builds a registry for spec and attaches it to the network
// and every disk. Call once, after construction and before running
// queries; the returned registry is also available as c.Faults.
func (c *Cluster) EnableFaults(spec fault.Spec) *fault.Registry {
	r := fault.NewRegistry(spec)
	c.Faults = r
	c.Net.SetFaults(r)
	for _, s := range c.Sites {
		if s.Disk != nil {
			s.Disk.SetFaults(r)
		}
	}
	return r
}

// NewLocal builds the paper's "local" configuration: numDisks processors
// with attached disks (joins run on these same sites).
func NewLocal(numDisks int, m *cost.Model) *Cluster {
	return newCluster(numDisks, 0, m)
}

// NewRemote builds the paper's "remote" configuration: numDisks processors
// with disks for storage plus numDiskless diskless processors that perform
// the join computation.
func NewRemote(numDisks, numDiskless int, m *cost.Model) *Cluster {
	return newCluster(numDisks, numDiskless, m)
}

func newCluster(numDisks, numDiskless int, m *cost.Model) *Cluster {
	if m == nil {
		m = cost.Default()
	}
	c := &Cluster{Model: m, Net: netsim.New(m)}
	for i := 0; i < numDisks; i++ {
		c.Sites = append(c.Sites, &Site{ID: i, Disk: disk.New(i, m)})
		c.diskSites = append(c.diskSites, i)
	}
	for i := 0; i < numDiskless; i++ {
		id := numDisks + i
		c.Sites = append(c.Sites, &Site{ID: id})
		c.disklessSites = append(c.disklessSites, id)
	}
	c.hosts = make([]int, len(c.Sites))
	c.dead = make([]bool, len(c.Sites))
	for i := range c.hosts {
		c.hosts[i] = i
	}
	return c
}

// EnableMirrors chains every disk to its ring neighbor (chained
// declustering: site i's fragments are mirrored on disk site i+1 mod n, the
// Appendix-A mod-indexing applied to backups). With mirrors on, a single
// disk-site crash fails over instead of restarting the query. Call once at
// setup; it is an error to mirror a cluster with fewer than two disks.
func (c *Cluster) EnableMirrors() error {
	n := len(c.diskSites)
	if n < 2 {
		return fmt.Errorf("gamma: chained declustering needs >= 2 disk sites, have %d", n)
	}
	for i, s := range c.diskSites {
		next := c.diskSites[(i+1)%n]
		c.Sites[s].Disk.SetBackup(c.Sites[next].Disk)
	}
	c.mirrored = true
	return nil
}

// Mirrored reports whether EnableMirrors has chained backup disks.
func (c *Cluster) Mirrored() bool { return c.mirrored }

// MarkDead marks a site failed and recomputes the host map: the dead site's
// roles move to its ring successor (the disk ring for disk sites, so the
// adopter is exactly the mirror holding the dead fragments; the full site
// ring for diskless sites), skipping sites that are themselves dead. Only
// call at a phase barrier.
func (c *Cluster) MarkDead(site int) {
	c.dead[site] = true
	if d := c.Sites[site].Disk; d != nil {
		d.SetDown(true)
	}
	for s := range c.hosts {
		if !c.dead[s] {
			c.hosts[s] = s
			continue
		}
		c.hosts[s] = c.successor(s)
	}
}

// successor finds the first alive site after s on its ring.
func (c *Cluster) successor(s int) int {
	ring := c.diskSites
	if !c.Sites[s].HasDisk() {
		ring = nil
		for i := range c.Sites {
			ring = append(ring, i)
		}
	}
	pos := 0
	for i, id := range ring {
		if id == s {
			pos = i
			break
		}
	}
	for i := 1; i < len(ring); i++ {
		cand := ring[(pos+i)%len(ring)]
		if !c.dead[cand] {
			return cand
		}
	}
	return s // no survivor: caller escalates before using the host map
}

// AliveHost returns the site executing the given logical site's roles.
func (c *Cluster) AliveHost(site int) int { return c.hosts[site] }

// DeadCount reports how many sites are currently marked dead.
func (c *Cluster) DeadCount() int {
	n := 0
	for _, d := range c.dead {
		if d {
			n++
		}
	}
	return n
}

// MirrorLost reports whether marking site dead would lose data: for a disk
// site, its mirror chain is broken when the ring successor (which holds this
// site's backup fragments) or the ring predecessor (whose backup fragments
// this site holds) is already dead. Diskless sites hold no fragments, so
// their loss never breaks a mirror.
func (c *Cluster) MirrorLost(site int) bool {
	if !c.Sites[site].HasDisk() {
		return false
	}
	n := len(c.diskSites)
	pos := 0
	for i, id := range c.diskSites {
		if id == site {
			pos = i
			break
		}
	}
	next := c.diskSites[(pos+1)%n]
	prev := c.diskSites[(pos+n-1)%n]
	return c.dead[next] || c.dead[prev]
}

// ReviveAll clears all dead marks and down flags, restoring the identity
// host map. Backup chains stay wired. Run calls this when a query finishes
// or escalates to a restart, scoping each failure to one query.
func (c *Cluster) ReviveAll() {
	for s := range c.dead {
		c.dead[s] = false
		c.hosts[s] = s
		if d := c.Sites[s].Disk; d != nil {
			d.SetDown(false)
		}
	}
}

// Colocated returns a predicate reporting whether dst's roles execute on
// the same physical site as src's — the short-circuit test senders use in
// place of plain src == dst once failover has moved roles around.
func (c *Cluster) Colocated(src int) func(dst int) bool {
	host := c.hosts[src]
	return func(dst int) bool { return c.hosts[dst] == host }
}

// NewTraceRecorder creates a trace recorder whose tracks mirror the
// machine: one per site, labelled by id and processor class. NewQuery takes
// it to put the execution on the simulated timeline.
func (c *Cluster) NewTraceRecorder() *trace.Recorder {
	labels := make([]string, len(c.Sites))
	for i, s := range c.Sites {
		class := "diskless"
		if s.HasDisk() {
			class = "disk"
		}
		labels[i] = fmt.Sprintf("site %d (%s)", s.ID, class)
	}
	return trace.NewRecorder(labels)
}

// DiskSites returns the ids of sites with attached disks, in order.
func (c *Cluster) DiskSites() []int { return c.diskSites }

// DisklessSites returns the ids of diskless sites, in order.
func (c *Cluster) DisklessSites() []int { return c.disklessSites }

// JoinSites returns the default join processors: diskless sites when
// present (remote configuration), otherwise the disk sites (local).
func (c *Cluster) JoinSites() []int {
	if len(c.disklessSites) > 0 {
		return c.disklessSites
	}
	return c.diskSites
}

// Disk returns the disk of a site, or an error for diskless sites.
func (c *Cluster) Disk(site int) (*disk.Disk, error) {
	if site < 0 || site >= len(c.Sites) {
		return nil, fmt.Errorf("gamma: no site %d", site)
	}
	d := c.Sites[site].Disk
	if d == nil {
		return nil, fmt.Errorf("gamma: site %d is diskless", site)
	}
	return d, nil
}

// DiskCounters sums the counters of every disk in the cluster.
func (c *Cluster) DiskCounters() disk.Counters {
	var total disk.Counters
	for _, s := range c.Sites {
		if s.Disk != nil {
			total = total.Add(s.Disk.Counters())
		}
	}
	return total
}

// OverflowDiskSite assigns a home disk site for the overflow files of a
// joining site: the site's own disk when it has one, otherwise a disk site
// chosen round-robin by join-site index ("different overflow files are
// assigned to different disks").
func (c *Cluster) OverflowDiskSite(joinSite int) int {
	if c.Sites[joinSite].HasDisk() {
		return joinSite
	}
	return c.diskSites[joinSite%len(c.diskSites)]
}
