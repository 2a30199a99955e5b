// Package determ seeds violations of the determinism analyzer. Each
// offending line carries a // want comment; clean idioms have none.
package determ

import "sort"

var globalTotal int64

// escapingRanges shows the map-iteration shapes the analyzer flags.
func escapingRanges(m map[int]int64, out chan<- int64, sink []int64) []int64 {
	for _, v := range m {
		out <- v // want `channel send happens in map order`
	}
	for _, v := range m {
		globalTotal = v // want `map iteration order over m escapes`
	}
	for i, v := range m {
		sink[0] = v // want `map iteration order over m escapes`
		_ = i
	}
	var collected []int64
	for _, v := range m {
		collected = append(collected, v) // want `append order follows map order`
	}
	for range m {
		go sort.Ints(nil) // want `goroutines are launched in map order`
	}
	var avg float64
	for _, v := range m {
		avg += float64(v) // want `map iteration order over m escapes`
	}
	_ = avg
	return collected
}

// capturedWrite shows a closure writing a variable captured from the
// enclosing function inside a map range.
func capturedWrite(m map[string]int) func() int {
	last := 0
	return func() int {
		for _, v := range m {
			last = v // want `map iteration order over m escapes`
		}
		return last
	}
}

// cleanRanges shows the order-independent idioms that must NOT be flagged.
func cleanRanges(m map[int]int64) ([]int, int64) {
	// Collect-then-sort: iteration order never escapes.
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	// Commutative integer accumulation.
	var sum int64
	for _, v := range m {
		sum += v
	}

	// Keyed writes touch one element per key.
	doubled := make(map[int]int64, len(m))
	for k, v := range m {
		doubled[k] = 2 * v
	}

	// Loop-local state dies with the iteration.
	for _, v := range m {
		scratch := v * 2
		_ = scratch
	}

	// Max and min folds, for any ordered type.
	var maxV, minV int64
	var maxF float64
	for _, v := range m {
		maxV = max(maxV, v)
		minV = min(minV, v, 0)
		maxF = max(maxF, float64(v))
	}
	sum += maxV + minV + int64(maxF)
	return keys, sum
}

// notAFold takes max of something other than the accumulator, so the last
// iteration wins.
func notAFold(m map[int]int64) int64 {
	var last int64
	for _, v := range m {
		last = max(v, 0) // want `map iteration order over m escapes`
	}
	return last
}
