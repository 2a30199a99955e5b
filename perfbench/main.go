// Command perfbench is the repository's host-clock benchmark. It runs the
// paper's joinABprime family at full scale (100,000 x 10,000 Wisconsin
// tuples) through the public layer entry points — wisconsin.Generate*,
// gamma.Load, core.Run and core.RunUpdate — checks every result against an
// independent map join, and prints each end-to-end metric by name with its
// unit. With -trace 1 it instead prints the per-layer ledger: host spans
// around each layer call, the Report counts, and a CPU profile folded by
// module. See README.md in this directory.
//
// Usage (from the repository root; run.py builds it first):
//
//	perfbench -workload abprime-sweep -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"gammajoin/internal/cost"
	"gammajoin/internal/experiments"
	"gammajoin/internal/walltime"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median. The machines of the last set-up are the ones measured.
const setupReps = 5

// hardLimit bounds a run's timed phases however slow the program gets, so
// a run always ends well inside the harness's three-minute limit.
const hardLimit = 120 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed: generates every input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in host seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced ledger and prints the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span table and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	traced := *traceFlag == 1
	epoch := walltime.Now()
	hardStop := epoch.Add(hardLimit)
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %gs timed, trace %d\n",
		w.name, *seed, *seconds, *traceFlag)

	// Set-up: generate and load, setupReps times, timing each.
	var (
		clients     []*client
		setupS      []float64
		genS, loadS []float64
		logs        []*spanLog
	)
	for rep := range setupReps {
		clients = nil
		runtime.GC()
		var log *spanLog
		if traced {
			log = newSpanLog(epoch, len(logs)<<32)
			logs = append(logs, log)
		}
		root := log.begin(0, 0, "bench", fmt.Sprintf("setup%d", rep), "")
		st := &setupTracer{log: log, parent: log.id(root)}
		start := walltime.Now()
		cl, err := w.setup(*seed, st)
		setupS = append(setupS, walltime.Since(start).Seconds())
		log.end(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		clients = cl
		if traced {
			genS = append(genS, layerSeconds(log.spans, "wisconsin"))
			loadS = append(loadS, layerSeconds(log.spans, "gamma"))
		}
	}

	// The oracle answers, then one verified warm-up pass: neither is timed.
	for _, c := range clients {
		c.prepare()
	}
	r := &runner{clients: clients, logs: make([]*spanLog, len(clients)), nextOp: make([]int, len(clients))}
	runtime.GC()
	warm := r.warmUp()
	goroutines := runtime.NumGoroutine()

	// A traced run times two phases, untraced then traced, of half the
	// length each, so that it costs what an untraced run does.
	phaseS := *seconds
	if traced {
		phaseS /= 2
	}
	phase := func() (*tally, float64, procDelta, rates) {
		before := snapshot()
		t, el, marks := r.timed(phaseS, hardStop)
		return t, el, before.to(snapshot()), intervalRates(marks)
	}
	t, elapsed, _, rt := phase()
	attempted, failed := warm.attempted+t.attempted, warm.failed+t.failed

	var (
		tt        *tally
		tElapsed  float64
		tDelta    procDelta
		tRates    rates
		prof      folded
		foldErr   error
		clientLog []*spanLog
	)
	if traced {
		for ci := range clients {
			r.logs[ci] = newSpanLog(epoch, (len(logs)+ci)<<32)
		}
		clientLog = r.logs
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			return 1
		}
		tt, tElapsed, tDelta, tRates = phase()
		pprof.StopCPUProfile()
		attempted, failed = attempted+tt.attempted, failed+tt.failed
		prof, foldErr = foldProfile(buf.Bytes())
		if err := writeTrace(*out, w.name, *seed, buf.Bytes(), mergeSpans(append(logs, clientLog...)...)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing the trace:", err)
			return 1
		}
	}

	// The workload's memory high-water mark, read before the paper tie
	// below loads relations of its own.
	peakRSS := peakRSSMB()

	// Checks that are not per operation.
	correct := failed == 0
	if err := checkPaper(*seed, clients, t.first.opSimS); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		correct = false
	}
	if n := settledGoroutines(goroutines); n != goroutines {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %d goroutines at exit, %d after warm-up\n", n, goroutines)
		correct = false
	}
	if traced && (foldErr != nil || prof.sum != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: folding the CPU profile: %v (fold sum %v over %d samples)\n",
			foldErr, prof.sum, prof.samples)
		correct = false
	}

	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if !traced {
		put("setup_s", median(setupS), "s")
		put("queries_per_s", rt.qps, "1/s")
		put("query_ms_p50", quantile(t.joinMs, 0.5), "ms")
		put("query_ms_p90", quantile(t.joinMs, 0.9), "ms")
		put("cpu_s_per_query", rt.cpuS, "s")
		put("alloc_mb_per_query", rt.allocB/1e6, "MB")
		put("allocs_per_query", rt.allocN, "count")
		put("peak_rss_mb", peakRSS, "MB")
		put("sim_s", t.first.simS, "s")
	} else {
		ledger(put, tt, tDelta, tRates.qps, rt.qps, genS, loadS, mergeSpans(clientLog...))
		for b, v := range prof.shares {
			put(b, v, "share")
		}
		put("bench.profile_samples", float64(prof.samples), "count")
		put("bench.profile_fold_sum", prof.sum, "share")
	}

	// Human-readable lines, then the JSON object as the last line.
	fmt.Fprintf(stdout, "timed phase: %d operations (%d joins, %d updates) in %.3f s; failed_frac %g (%d of %d attempted)\n",
		t.verified(), len(t.joinMs), len(t.updMs), elapsed, div(float64(failed), float64(attempted)), failed, attempted)
	if len(t.updMs) > 0 {
		fmt.Fprintf(stdout, "update latency: p50 %.3f ms, p90 %.3f ms (n=%d)\n",
			quantile(t.updMs, 0.5), quantile(t.updMs, 0.9), len(t.updMs))
	}
	if traced {
		fmt.Fprintf(stdout, "traced phase: %d operations in %.3f s; trace written under %s\n",
			tt.verified(), tElapsed, *out)
	}
	printMetrics(stdout, res.Metrics, len(t.joinMs))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// ledger puts the per-layer metrics of the traced phase.
func ledger(put func(string, float64, string), t *tally, d procDelta,
	tracedQPS, untracedQPS float64, genS, loadS []float64, spans []span) {
	ops := float64(t.verified())
	f := t.first
	fops := float64(f.ops)
	put("wisconsin.generate_s", median(genS), "s")
	put("gamma.load_s", median(loadS), "s")
	for _, alg := range sweepAlgs {
		put("core.run_ms_p50."+alg.String(), median(spanMs(spans, "core.Run", alg.String())), "ms")
	}
	upd := spanMs(spans, "core.RunUpdate", "")
	put("core.update_ms_p50", quantile(upd, 0.5), "ms")
	put("core.update_ms_p90", quantile(upd, 0.9), "ms")
	put("wiss.sort_passes_per_query", div(f.sortPasses, fops), "count")
	put("gamma.overflow_frac", div(f.rOverflowed, f.rTuples), "share")
	put("gamma.hash_chain_max", float64(f.chainMax), "count")
	put("bitfilter.drop_frac", div(f.filterDropped, f.sTuples), "share")
	put("runtime.sched_latency_p90_us", d.schedP90us, "us")
	put("runtime.mutex_wait_s_per_query", div(d.mutexWaitS, ops), "s")
	put("disk.pages_read_per_query", div(f.pagesRead, fops), "count")
	put("disk.pages_written_per_query", div(f.pagesWritten, fops), "count")
	put("netsim.packets_remote_per_query", div(f.packetsRemote, fops), "count")
	put("netsim.packets_local_per_query", div(f.packetsLocal, fops), "count")
	put("netsim.tuples_remote_per_query", div(f.tuplesRemote, fops), "count")
	put("split.forming_local_frac", div(f.formingLocal, f.formingTotal), "share")
	put("core.phases_per_query", div(f.phases, fops), "count")
	put("core.results_per_query", div(f.results, fops), "count")
	put("bench.queries_per_s_untraced", untracedQPS, "1/s")
	put("bench.queries_per_s_traced", tracedQPS, "1/s")
	put("bench.trace_overhead_frac", 1-div(tracedQPS, untracedQPS), "share")
}

// spanMs lists the durations of the spans named name (and with attribute
// attr, when attr is not empty).
func spanMs(spans []span, name, attr string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, s.ms())
		}
	}
	return out
}

// layerSeconds sums the durations of one layer's spans.
func layerSeconds(spans []span, layer string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Layer == layer {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkPaper ties the joins that reproduce a paper run to the experiments
// harness: each one's simulated seconds in the first timed pass must equal
// Harness.Seconds for the same run key, scale and seed.
func checkPaper(seed uint64, clients []*client, opSimS []float64) error {
	if len(clients) != 1 {
		return nil // only the single-client workloads reproduce paper runs
	}
	pass := clients[0].pass
	if len(opSimS) != len(pass) {
		return fmt.Errorf("paper tie: first timed pass verified %d of %d operations", len(opSimS), len(pass))
	}
	h := experiments.NewHarness(experiments.Config{OuterN: outerN, InnerN: innerN,
		Disks: diskN, Remote: disklesN, Seed: seed, Model: cost.Default()})
	for i, o := range pass {
		if o.paper == nil {
			continue
		}
		want, err := h.Seconds(*o.paper)
		if err != nil {
			return fmt.Errorf("paper tie: %s: %w", o.paper.Slug(), err)
		}
		if opSimS[i] != want {
			return fmt.Errorf("paper tie: %s: benchmark join took %v simulated s, the paper run %v",
				o.paper.Slug(), opSimS[i], want)
		}
	}
	return nil
}

// settledGoroutines returns the goroutine count once exiting goroutines
// have had a chance to finish, stopping early when it reaches want.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// writeTrace writes the traced run's CPU profile and span table.
func writeTrace(dir, workload string, seed uint64, prof []byte, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	return writeSpans(base+".spans.tsv", spans)
}

// printMetrics prints one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, m map[string]metric, joins int) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if strings.HasPrefix(n, "query_ms_") {
			note = fmt.Sprintf("  (n=%d joins)", joins)
		}
		fmt.Fprintf(w, "%-34s %14.6f %s%s\n", n, m[n].Value, m[n].Unit, note)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
