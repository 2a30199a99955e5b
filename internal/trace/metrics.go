package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics is a registry of named counters and gauges sampled into a time
// series at every phase barrier. Counters accumulate monotonically over the
// whole query (all attempts); gauges hold one per-phase value and reset
// after each sample. Handles are cheap atomics, safe for hot paths in
// worker goroutines; registration is lazy and idempotent.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	names    []string // sorted union of registered names
	samples  []Sample
}

func newMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// NewMetrics builds a standalone registry for consumers that sample outside
// a Recorder's phase barriers — the workload engine (internal/sched)
// samples its admission metrics per overload event instead.
func NewMetrics() *Metrics { return newMetrics() }

// Sample snapshots every registered metric as one row of the time series.
// Recorders call the internal variant at phase barriers; standalone
// registries call this at whatever event boundary they define (attempt and
// phase are free-form ordinals there, phaseName the event kind).
func (m *Metrics) Sample(attempt, phase int, phaseName string, at int64) {
	m.sample(attempt, phase, phaseName, at)
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current cumulative count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a per-phase level metric; it resets to zero after each sample.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Max raises the gauge to v if v is larger (order-independent, so worker
// goroutines may race on it deterministically).
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Counter returns (registering if needed) the counter named name.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
		m.addName(name)
	}
	return c
}

// Gauge returns (registering if needed) the gauge named name.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
		m.addName(name)
	}
	return g
}

// addName inserts name into the sorted name list (caller holds mu).
func (m *Metrics) addName(name string) {
	i := sort.SearchStrings(m.names, name)
	if i < len(m.names) && m.names[i] == name {
		return
	}
	m.names = append(m.names, "")
	copy(m.names[i+1:], m.names[i:])
	m.names[i] = name
}

// KV is one sampled metric value.
type KV struct {
	Name string
	V    int64
}

// Sample is the registry's state at one phase barrier. Counter values are
// cumulative; gauge values cover just the sampled phase.
type Sample struct {
	Attempt   int
	Phase     int
	PhaseName string
	At        int64 // simulated ns at the end of the phase
	Values    []KV  // sorted by name
}

// sample snapshots every registered metric (called by the recorder at the
// phase barrier, after all workers finished). Gauges reset afterwards so
// each phase reports its own level.
func (m *Metrics) sample(attempt, phase int, phaseName string, at int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Sample{Attempt: attempt, Phase: phase, PhaseName: phaseName, At: at}
	for _, name := range m.names {
		var v int64
		if c := m.counters[name]; c != nil {
			v = c.v.Load()
		} else if g := m.gauges[name]; g != nil {
			v = g.v.Swap(0)
		}
		s.Values = append(s.Values, KV{Name: name, V: v})
	}
	m.samples = append(m.samples, s)
}

// Samples returns the per-phase time series in barrier order.
func (m *Metrics) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Sample(nil), m.samples...)
}

// IsCounter reports whether name is registered as a counter (vs a gauge).
func (m *Metrics) IsCounter(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name] != nil
}

// Deltas returns metric name's per-phase increments, aligned with
// Samples(). For counters this is the difference between consecutive
// samples (the per-phase activity the satellite "Forming per phase" query
// needs); gauges are already per-phase, so their sampled values return
// unchanged.
func (m *Metrics) Deltas(name string) []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	counter := m.counters[name] != nil
	out := make([]int64, 0, len(m.samples))
	var prev int64
	for _, s := range m.samples {
		i := sort.Search(len(s.Values), func(i int) bool { return s.Values[i].Name >= name })
		var v int64
		if i < len(s.Values) && s.Values[i].Name == name {
			v = s.Values[i].V
		}
		if counter {
			out = append(out, v-prev)
			prev = v
		} else {
			out = append(out, v)
		}
	}
	return out
}
