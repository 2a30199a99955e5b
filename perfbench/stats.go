package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM), in
// megabytes of 10^6 bytes.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// procSnap is a snapshot of the runtime metrics a traced phase reports.
type procSnap []metrics.Sample

const (
	schedLatencies = "/sched/latencies:seconds"
	mutexWait      = "/sync/mutex/wait/total:seconds"
)

func snapshot() procSnap {
	rt := procSnap{{Name: schedLatencies}, {Name: mutexWait}}
	metrics.Read(rt)
	return rt
}

// procDelta is what the runtime observed over a timed phase.
type procDelta struct {
	schedP90us float64 // p90 goroutine scheduling latency, microseconds
	mutexWaitS float64 // time goroutines spent blocked on sync.Mutex
}

func (b procSnap) to(a procSnap) procDelta {
	var d procDelta
	if a[0].Value.Kind() == metrics.KindFloat64Histogram && b[0].Value.Kind() == metrics.KindFloat64Histogram {
		d.schedP90us = histQuantile(b[0].Value.Float64Histogram(), a[0].Value.Float64Histogram(), 0.9) * 1e6
	}
	if a[1].Value.Kind() == metrics.KindFloat64 && b[1].Value.Kind() == metrics.KindFloat64 {
		d.mutexWaitS = a[1].Value.Float64() - b[1].Value.Float64()
	}
	return d
}

// histQuantile is the q-quantile of the samples recorded between two
// snapshots of one cumulative histogram, interpolated linearly inside the
// bucket it falls in.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	counts := make([]float64, len(after.Counts))
	var total float64
	for i := range counts {
		counts[i] = float64(after.Counts[i])
		if i < len(before.Counts) {
			counts[i] -= float64(before.Counts[i])
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := q * total
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+c < target {
			cum += c
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		if math.IsInf(lo, -1) {
			return hi
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (target-cum)/c*(hi-lo)
	}
	return after.Buckets[len(after.Buckets)-1]
}
