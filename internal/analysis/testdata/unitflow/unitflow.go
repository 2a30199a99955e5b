// Package unitflow seeds violations of the unitflow analyzer against the
// real cost-unit types.
package unitflow

import (
	"time"

	"gammajoin/internal/cost"
)

// crossUnit converts milliseconds straight into nanoseconds: 5 ms becomes
// 5 ns, a silent 1e6x error.
func crossUnit(ms cost.SimMs) cost.SimNs {
	return cost.SimNs(ms) // want `converting cost.SimMs to cost.SimNs launders the unit`
}

// countToTime turns a page count into a duration.
func countToTime(pg cost.Pages) cost.SimNs {
	return cost.SimNs(pg) // want `converting cost.Pages to cost.SimNs launders the unit`
}

// bareToNs asserts an unlabeled int64 is nanoseconds.
func bareToNs(x int64) cost.SimNs {
	return cost.SimNs(x) // want `cost.SimNs built by conversion from a bare expression`
}

// bareToMs asserts an unlabeled float is milliseconds.
func bareToMs(x float64) cost.SimMs {
	return cost.SimMs(x) // want `cost.SimMs built by conversion from a bare expression`
}

// revokePriced launders a revocation's byte count straight into simulated
// time — the shape an adaptation cost site must route through the model's
// converting helpers (RepartitionPassNs, ScaleNs) instead.
func revokePriced(b cost.Bytes) cost.SimNs {
	return cost.SimNs(b) // want `converting cost.Bytes to cost.SimNs launders the unit`
}

// revokedToBare discards the byte unit of a revoked grant.
func revokedToBare(b cost.Bytes) int64 {
	return int64(b) // want `converting cost.Bytes to int64 discards the unit`
}

// nsToBare discards the unit on the way out.
func nsToBare(ns cost.SimNs) int64 {
	return int64(ns) // want `converting cost.SimNs to int64 discards the unit`
}

// nsToDuration must go through Dur.
func nsToDuration(ns cost.SimNs) time.Duration {
	return time.Duration(ns) // want `converting cost.SimNs to time.Duration discards the unit`
}

// pagesToFloat must go through Count.
func pagesToFloat(pg cost.Pages) float64 {
	return float64(pg) // want `converting cost.Pages to float64 discards the unit`
}

// sanctioned shows every allowed shape: named constructors, accessor
// methods, count types built from bare integers, constant conversions, and
// the scaling helpers.
func sanctioned(x int64, d time.Duration, pg cost.Pages, ms cost.SimMs) (cost.SimNs, int64) {
	ns := cost.Ns(x) + cost.DurNs(d) + ms.Ns() // converting helpers scale honestly
	ns += cost.ScaleNs(pg, cost.SimNs(1000))   // constant conversions carry no runtime unit
	tp := cost.Tuples(x)                       // count units may wrap bare integers
	_ = cost.Ms(2.5)
	_ = ns.Dur()
	_ = ns.Millis()
	return ns.Div(tp.Count() + 1), ns.Nanoseconds()
}

// parsedColumnToNs asserts a just-parsed TSV column is nanoseconds without
// the sanctioned constructor — the shape a profile reader must write as
// cost.Ns(v) instead.
func parsedColumnToNs(col string, atoi func(string) int64) cost.SimNs {
	v := atoi(col)
	return cost.SimNs(v) // want `cost.SimNs built by conversion from a bare expression`
}

// blameShare divides two blame buckets as floats without going through
// Nanoseconds(), silently discarding the unit on both sides.
func blameShare(bucket, total cost.SimNs) float64 {
	return float64(bucket) / float64(total) // want `converting cost.SimNs to float64 discards the unit` `converting cost.SimNs to float64 discards the unit`
}

// profileSanctioned is the clean profiler shape: TSV columns enter through
// cost.Ns, percentages and report fields exit through Nanoseconds().
func profileSanctioned(col int64, bucket, total cost.SimNs) (cost.SimNs, float64) {
	parsed := cost.Ns(col)
	share := 100 * float64(bucket.Nanoseconds()) / float64(total.Nanoseconds())
	return parsed, share
}
