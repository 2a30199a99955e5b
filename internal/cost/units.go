// Typed simulated units. Every quantity the simulator reports flows through
// this package as one of the defined types below instead of a bare int64, so
// a silent ms*ns mix (or a page count added to a tuple count) is a compile
// error — and, for the conversions the compiler cannot rule out, a gammavet
// unitflow diagnostic (docs/STATIC_ANALYSIS.md).
//
// The conversion helpers here are the only sanctioned bridges between units
// and bare numbers. Outside internal/cost, the unitflow analyzer flags
//
//   - converting one unit type directly into another (SimMs(ns), ...),
//   - manufacturing a time unit from a bare non-constant expression
//     (SimNs(x) — use Ns, DurNs, or ScaleNs), and
//   - laundering any unit back into a bare numeric type
//     (int64(ns), float64(pages) — use Nanoseconds, Count, Millis, ...).
//
// All helpers are exact wrappers of the arithmetic the pre-typed simulator
// performed, so introducing them changed no reported metric: the
// BENCH_1989.json baseline is bit-identical across the refactor.
package cost

import "time"

// SimNs is a duration in simulated nanoseconds — the currency every cost in
// Model is denominated in and every Acct accumulates. It is not wall-clock
// time; see gammavet's confine analyzer, which keeps the real clock in
// internal/walltime.
type SimNs int64

// SimMs is a duration in simulated milliseconds, used only for the
// human-scale hardware parameters in Params (page times, heartbeat period).
type SimMs float64

// Pages counts disk pages transferred.
type Pages int64

// Tuples counts tuples moved or processed.
type Tuples int64

// Bytes counts bytes of simulated data (wire traffic, relation sizes).
type Bytes int64

// Ns wraps a bare nanosecond count in SimNs. It is the sanctioned
// constructor for values that enter the simulation from outside the cost
// model (deterministic RNG draws, config knobs).
func Ns(n int64) SimNs { return SimNs(n) }

// Nanoseconds returns the bare nanosecond count — the sanctioned exit for
// code that must hand simulated time to unit-free surfaces (metrics
// registries, JSON, format strings with explicit casts).
func (n SimNs) Nanoseconds() int64 { return int64(n) }

// Dur converts simulated nanoseconds to a time.Duration for report surfaces
// that format with %v. The conversion is exact (both are nanosecond counts).
func (n SimNs) Dur() time.Duration { return time.Duration(n) }

// DurNs converts a time.Duration (report-surface simulated time) back into
// SimNs. Exact, like Dur.
func DurNs(d time.Duration) SimNs { return SimNs(d.Nanoseconds()) }

// Millis returns the duration in fractional simulated milliseconds.
func (n SimNs) Millis() float64 { return float64(n) / 1e6 }

// Micros returns the duration in fractional simulated microseconds (the
// Chrome trace_event timebase).
func (n SimNs) Micros() float64 { return float64(n) / 1e3 }

// Seconds returns the duration in fractional simulated seconds.
func (n SimNs) Seconds() float64 { return float64(n) / 1e9 }

// Ns converts a millisecond parameter to simulated nanoseconds, truncating
// exactly like the pre-typed model did (int64(x * 1e6)).
func (ms SimMs) Ns() SimNs { return SimNs(float64(ms) * 1e6) }

// Ms wraps a bare millisecond value in SimMs — the sanctioned constructor
// for hardware parameters arriving from flags or config files.
func Ms(f float64) SimMs { return SimMs(f) }

// ScaleNs charges k repetitions of a per-operation cost: k * per. The count
// may be any integer-shaped value — an int loop bound, a Pages/Tuples/Bytes
// counter — which is what makes "N pages at SeqPage each" expressible
// without laundering the unit through a bare int64.
func ScaleNs[T ~int | ~int64](k T, per SimNs) SimNs { return SimNs(int64(k)) * per }

// Div divides the duration by an integer count (processor-sharing slices,
// per-item averages), with the same truncation as bare int64 division.
func (n SimNs) Div(k int64) SimNs { return n / SimNs(k) }

// Count returns the bare page count.
func (p Pages) Count() int64 { return int64(p) }

// Count returns the bare tuple count.
func (t Tuples) Count() int64 { return int64(t) }

// Count returns the bare byte count.
func (b Bytes) Count() int64 { return int64(b) }
