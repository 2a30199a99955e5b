GO ?= go
RACE ?=

.PHONY: all build vet lint test race bench bench-baseline bench-batch-baseline bench-sim bench-wall-report deflake mpl determinism chaos trace avail degrade prof overload clean

all: build vet test

build:
	$(GO) build ./...

# vet runs the stock go vet plus all six gammavet analyzers repo-wide —
# determinism, costcharge, faultpoint, unitflow, leakcheck, wallclock
# (docs/STATIC_ANALYSIS.md). Any diagnostic fails the build.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/gammavet ./...

# lint is the historical alias for vet.
lint: vet

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the full benchmark suite (every figure/table/ablation plus the
# workload engine's mpl sweep, each 3x keeping the fastest), emits the run as
# JSON, and gates it twice:
#
#   - wall-clock against BENCH_batch.json, the batched-engine baseline: may
#     not regress >20% after median machine-speed normalization;
#   - simulated metrics (sim-sec, qps, ...) against BENCH_$(BENCH_SEED).json,
#     the pre-batching baseline: must match bit-for-bit. The two baselines
#     share every sim metric — that identity is the batched engine's
#     no-cost-model-drift contract, enforced on every bench run.
BENCH_SEED ?= 1989
BENCH_WALL ?= batch
BENCH_FLAGS = -run '^$$' -bench . -benchtime 2x -count 3 .
# BENCH_TOL is the wall-clock tolerance after machine normalization. On a
# single-core host, scheduler and frequency jitter move individual suites
# 20-40% run to run even when the median is steady, so the gate allows more
# per-benchmark spread than benchcheck's default; the sim-metric gate below
# it stays exact.
BENCH_TOL ?= 0.40
# Benchmarks whose baseline wall time is under BENCH_MIN_WALL ns (20ms) run
# too few instructions per iteration for 2x-iteration timing to mean anything
# on this host; they skip the wall gate but their sim metrics stay exact.
BENCH_MIN_WALL ?= 2e7
bench:
	$(GO) test $(BENCH_FLAGS) > /tmp/gammajoin-bench.txt || { cat /tmp/gammajoin-bench.txt; exit 1; }
	$(GO) run ./cmd/benchcheck -emit /tmp/gammajoin-bench-current.json \
		-tolerance $(BENCH_TOL) -min-wall-ns $(BENCH_MIN_WALL) \
		-against BENCH_$(BENCH_WALL).json < /tmp/gammajoin-bench.txt
	$(GO) run ./cmd/benchcheck -sim-only -against BENCH_$(BENCH_SEED).json < /tmp/gammajoin-bench.txt
	@echo "bench gate: OK"

# bench-baseline regenerates the committed sim baseline on the current
# machine; bench-batch-baseline regenerates the batched-engine wall-clock
# baseline (run it after intentional wall-clock changes — the sim metrics it
# captures must still match BENCH_$(BENCH_SEED).json, which `bench` checks).
bench-baseline:
	$(GO) test $(BENCH_FLAGS) > /tmp/gammajoin-bench.txt || { cat /tmp/gammajoin-bench.txt; exit 1; }
	$(GO) run ./cmd/benchcheck -emit BENCH_$(BENCH_SEED).json < /tmp/gammajoin-bench.txt

bench-batch-baseline:
	$(GO) test $(BENCH_FLAGS) > /tmp/gammajoin-bench.txt || { cat /tmp/gammajoin-bench.txt; exit 1; }
	$(GO) run ./cmd/benchcheck -emit BENCH_$(BENCH_WALL).json \
		-sim-only -against BENCH_$(BENCH_SEED).json < /tmp/gammajoin-bench.txt

# BENCH_FRESH succeeds when the bench run's output exists and is newer than
# every Go source file, i.e. it was produced by the code being gated.
BENCH_FRESH = test -s /tmp/gammajoin-bench.txt && \
	test -z "$$(find . -name '*.go' -newer /tmp/gammajoin-bench.txt -print -quit)"

# bench-sim gates only the simulated metrics — the machine-independent,
# must-match-exactly half of the bench gate. A drifted sim metric is a
# correctness change, not a perf regression, so this gate has no tolerance
# and no noise. Reuses the bench run's output only when it is fresh (see
# BENCH_FRESH); a run left by an earlier checkout is redone. It first runs
# the serial-vs-batched equivalence matrix under the race detector: every
# algorithm in every scenario (clean, faults, failover, budget swings,
# cancellation) must produce bit-identical reports at delivery-run length 1
# and the batched default.
bench-sim:
	$(GO) test -race -run 'TestBatchedEquivalence' -count 1 ./internal/core/
	@$(BENCH_FRESH) || $(GO) test $(BENCH_FLAGS) > /tmp/gammajoin-bench.txt || { cat /tmp/gammajoin-bench.txt; exit 1; }
	$(GO) run ./cmd/benchcheck -sim-only -against BENCH_$(BENCH_SEED).json < /tmp/gammajoin-bench.txt
	@echo "sim-metrics gate: OK"

# bench-wall-report writes the fig5 serial-vs-batched wall-clock comparison
# (current run against the pre-batching BENCH_$(BENCH_SEED).json) to a file
# CI uploads as an artifact. Reuses the bench run's output only when fresh.
bench-wall-report:
	@$(BENCH_FRESH) || $(GO) test $(BENCH_FLAGS) > /tmp/gammajoin-bench.txt || { cat /tmp/gammajoin-bench.txt; exit 1; }
	$(GO) run ./cmd/benchcheck -wall-delta Figure5 \
		-against BENCH_$(BENCH_SEED).json < /tmp/gammajoin-bench.txt \
		| tee /tmp/gammajoin-fig5-wall.txt

# deflake is the flakiness audit: the whole test suite 5x under the race
# detector; any run-to-run variance fails it.
deflake:
	$(GO) test -count=5 -race ./...

# mpl is the workload-engine determinism gate: the same multi-query workload
# (8 concurrent joins, fair policy) twice, byte-identical stdout and
# per-query trace trees required; then the mpl-sweep experiment twice.
mpl:
	rm -rf /tmp/gammajoin-mpl-1 /tmp/gammajoin-mpl-2
	$(GO) run ./cmd/gammabench -outer 8000 -inner 800 -mpl 8 -policy fair \
		-trace-dir /tmp/gammajoin-mpl-1 > /tmp/gammajoin-mpl-1.txt
	$(GO) run ./cmd/gammabench -outer 8000 -inner 800 -mpl 8 -policy fair \
		-trace-dir /tmp/gammajoin-mpl-2 > /tmp/gammajoin-mpl-2.txt
	cmp /tmp/gammajoin-mpl-1.txt /tmp/gammajoin-mpl-2.txt
	diff -r /tmp/gammajoin-mpl-1 /tmp/gammajoin-mpl-2
	$(GO) run ./cmd/gammabench -exp mpl-sweep -outer 8000 -inner 800 > /tmp/gammajoin-mplsweep-1.txt
	$(GO) run ./cmd/gammabench -exp mpl-sweep -outer 8000 -inner 800 > /tmp/gammajoin-mplsweep-2.txt
	cmp /tmp/gammajoin-mplsweep-1.txt /tmp/gammajoin-mplsweep-2.txt
	@echo "mpl gate: OK"

# determinism runs the joinABprime benchmark twice and requires byte-identical
# cost reports — the live counterpart of the gammavet determinism analyzer.
determinism:
	$(GO) run ./cmd/gammabench -exp table1,table2 -outer 20000 -inner 2000 > /tmp/gammajoin-det-1.txt
	$(GO) run ./cmd/gammabench -exp table1,table2 -outer 20000 -inner 2000 > /tmp/gammajoin-det-2.txt
	cmp /tmp/gammajoin-det-1.txt /tmp/gammajoin-det-2.txt
	@echo "determinism gate: OK"

# chaos runs joinABprime across all four algorithms (fig5) under three fault
# seeds with every injector active, under the race detector, and requires
# each seed's two runs to produce byte-identical reports — the determinism
# gate with the fault layer switched on (see docs/FAULTS.md).
CHAOS_RATES = -fault-disk 0.02 -fault-net 0.02 -fault-dup 0.02 -fault-mem 0.3 -fault-crash 0.05
chaos:
	@for seed in 3 17 1989; do \
		echo "chaos: fault seed $$seed"; \
		$(GO) run -race ./cmd/gammabench -exp fig5 -outer 8000 -inner 800 \
			-fault-seed $$seed $(CHAOS_RATES) > /tmp/gammajoin-chaos-1.txt || exit 1; \
		$(GO) run -race ./cmd/gammabench -exp fig5 -outer 8000 -inner 800 \
			-fault-seed $$seed $(CHAOS_RATES) > /tmp/gammajoin-chaos-2.txt || exit 1; \
		cmp /tmp/gammajoin-chaos-1.txt /tmp/gammajoin-chaos-2.txt || exit 1; \
	done
	@echo "chaos gate: OK"

# trace exports every fig5 run's timeline (Chrome trace_event JSON plus
# per-phase metrics TSV; see docs/OBSERVABILITY.md) twice and requires the
# two export trees to be byte-identical — the determinism gate for the
# tracing layer. Set RACE=-race to run it under the race detector.
trace:
	rm -rf /tmp/gammajoin-trace-1 /tmp/gammajoin-trace-2
	$(GO) run $(RACE) ./cmd/gammabench -exp fig5 -outer 8000 -inner 800 \
		-trace-dir /tmp/gammajoin-trace-1 > /dev/null
	$(GO) run $(RACE) ./cmd/gammabench -exp fig5 -outer 8000 -inner 800 \
		-trace-dir /tmp/gammajoin-trace-2 > /dev/null
	diff -r /tmp/gammajoin-trace-1 /tmp/gammajoin-trace-2
	@echo "trace gate: OK ($$(ls /tmp/gammajoin-trace-1/*.trace.json | wc -l) timelines byte-identical)"

# avail is the availability gate: joinABprime across all four algorithms
# under a crash-only fault schedule, mirrors off (query-restart rung) and on
# (chained-declustered failover rung), each twice under the race detector
# with byte-identical output required. The mirrored runs must report zero
# restarts — see docs/FAULTS.md, "The recovery ladder".
AVAIL_FLAGS = -exp fig5 -outer 8000 -inner 800 -fault-seed 7 -fault-crash 0.05
avail:
	@for mode in "" "-mirror"; do \
		echo "avail: crash sweep $${mode:-"(restart rung)"}"; \
		$(GO) run -race ./cmd/gammabench $(AVAIL_FLAGS) $$mode > /tmp/gammajoin-avail-1.txt || exit 1; \
		$(GO) run -race ./cmd/gammabench $(AVAIL_FLAGS) $$mode > /tmp/gammajoin-avail-2.txt || exit 1; \
		cmp /tmp/gammajoin-avail-1.txt /tmp/gammajoin-avail-2.txt || exit 1; \
	done
	@rec=$$(grep "^recovery:" /tmp/gammajoin-avail-1.txt); \
	echo "avail (mirrored): $$rec"; \
	echo "$$rec" | grep -q ", 0 restarts," \
		|| { echo "avail gate: mirrored sweep restarted"; exit 1; }; \
	if echo "$$rec" | grep -q ", 0 failed over,"; then \
		echo "avail gate: mirrored sweep never failed over"; exit 1; \
	fi
	@echo "avail gate: OK"

# degrade is the degradation-curve gate: static vs dynamic Hybrid across the
# mis-estimation sweep (-est-error 0.25..4) with memory pressure and budget
# swings active (docs/FAULTS.md, "Dynamic Hybrid under budget swings"), twice
# under the race detector with byte-identical output required — and the
# dynamic join's p95 over the sweep must beat the static one's.
DEGRADE_FLAGS = -exp degrade -outer 20000 -inner 2000 \
	-fault-seed 77 -fault-mem-pressure 0.5 -fault-swing 0.5
degrade:
	$(GO) run -race ./cmd/gammabench $(DEGRADE_FLAGS) > /tmp/gammajoin-degrade-1.txt
	$(GO) run -race ./cmd/gammabench $(DEGRADE_FLAGS) > /tmp/gammajoin-degrade-2.txt
	cmp /tmp/gammajoin-degrade-1.txt /tmp/gammajoin-degrade-2.txt
	@p95=$$(grep "^note: p95 over sweep:" /tmp/gammajoin-degrade-1.txt); \
	echo "degrade: $${p95#note: }"; \
	echo "$$p95" | awk '{ st=$$6+0; dyn=$$8+0; exit !(dyn < st) }' \
		|| { echo "degrade gate: dynamic p95 does not beat static"; exit 1; }
	@echo "degrade gate: OK"

# prof is the profiler determinism gate (docs/OBSERVABILITY.md, "Where did
# the time go"): export fig5's profiles and span tables twice and require
# byte-identical trees; require gammaprof's offline re-profile of a spans TSV
# to reproduce the harness's in-process report byte-for-byte; and require
# gammaprof diff to be deterministic. Also checks the blame identity line is
# present in every text report — the buckets-sum-to-response contract.
prof:
	rm -rf /tmp/gammajoin-prof-1 /tmp/gammajoin-prof-2 /tmp/gammajoin-prof-spans
	$(GO) run $(RACE) ./cmd/gammabench -exp fig5 -outer 8000 -inner 800 \
		-prof-dir /tmp/gammajoin-prof-1 -trace-dir /tmp/gammajoin-prof-spans > /dev/null
	$(GO) run $(RACE) ./cmd/gammabench -exp fig5 -outer 8000 -inner 800 \
		-prof-dir /tmp/gammajoin-prof-2 > /dev/null
	diff -r /tmp/gammajoin-prof-1 /tmp/gammajoin-prof-2
	grep -L "^identity: buckets sum to" /tmp/gammajoin-prof-1/*.prof.txt | \
		{ ! grep . ; } || { echo "prof gate: report missing the identity line"; exit 1; }
	$(GO) run ./cmd/gammaprof report \
		/tmp/gammajoin-prof-spans/hybrid_r0.5_local_hpja.spans.tsv \
		> /tmp/gammajoin-prof-offline.txt
	cmp /tmp/gammajoin-prof-offline.txt /tmp/gammajoin-prof-1/hybrid_r0.5_local_hpja.prof.txt
	$(GO) run ./cmd/gammaprof diff \
		/tmp/gammajoin-prof-1/simple_r0.5_local_hpja.prof.tsv \
		/tmp/gammajoin-prof-1/hybrid_r0.5_local_hpja.prof.tsv > /tmp/gammajoin-prof-diff-1.txt
	$(GO) run ./cmd/gammaprof diff \
		/tmp/gammajoin-prof-1/simple_r0.5_local_hpja.prof.tsv \
		/tmp/gammajoin-prof-1/hybrid_r0.5_local_hpja.prof.tsv > /tmp/gammajoin-prof-diff-2.txt
	cmp /tmp/gammajoin-prof-diff-1.txt /tmp/gammajoin-prof-diff-2.txt
	@echo "prof gate: OK ($$(ls /tmp/gammajoin-prof-1/*.prof.txt | wc -l) profiles byte-identical; offline == in-process)"

# overload is the overload-control gate (docs/SCHEDULER.md, "Overload and
# shedding"): the goodput-vs-offered-load sweep twice with byte-identical
# reports required, plus the plateau assertion — past saturation (2x offered
# load) the no-shed baseline's goodput must fall below half its peak while
# every shedding policy holds within 10% of its saturation (load 1.00)
# goodput. Then a deadline + shed + retry-budget workload under the race
# detector, twice, with report and overload metrics TSV byte-compared.
OVERLOAD_FLAGS = -exp overload -outer 10000 -inner 1000
OVERLOAD_WL = -outer 10000 -inner 1000 -mpl 3 -queries 12 -gap 400 \
	-deadline 30000 -shed-policy largest -queue-cap 4 -retry-budget 4 \
	-fault-seed 7 -fault-disk 0.02 -retry-backoff 1
overload:
	$(GO) run ./cmd/gammabench $(OVERLOAD_FLAGS) > /tmp/gammajoin-overload-1.txt
	$(GO) run ./cmd/gammabench $(OVERLOAD_FLAGS) > /tmp/gammajoin-overload-2.txt
	cmp /tmp/gammajoin-overload-1.txt /tmp/gammajoin-overload-2.txt
	@awk '$$1=="none" { if ($$4+0 > np) np=$$4+0; if ($$2=="2.00") n2=$$4+0 } \
		$$1=="reject" || $$1=="largest" || $$1=="brownout" { \
			if ($$2=="1.00") sat[$$1]=$$4+0; if ($$2=="2.00") two[$$1]=$$4+0 } \
		END { ok = (n2 < 0.5*np); \
			for (p in sat) if (two[p] < 0.9*sat[p]) { print "overload gate: " p " 2x goodput " two[p] " below 90% of saturation " sat[p]; ok=0 }; \
			if (ok) printf "overload: plateau holds (no-shed 2x %.3f < half peak %.3f)\n", n2, np; \
			exit !ok }' /tmp/gammajoin-overload-1.txt \
		|| { echo "overload gate: plateau assertion failed"; exit 1; }
	$(GO) run -race ./cmd/gammabench $(OVERLOAD_WL) \
		-metrics /tmp/gammajoin-overload-m1.tsv > /tmp/gammajoin-overload-w1.txt
	$(GO) run -race ./cmd/gammabench $(OVERLOAD_WL) \
		-metrics /tmp/gammajoin-overload-m2.tsv > /tmp/gammajoin-overload-w2.txt
	cmp /tmp/gammajoin-overload-w1.txt /tmp/gammajoin-overload-w2.txt
	cmp /tmp/gammajoin-overload-m1.tsv /tmp/gammajoin-overload-m2.tsv
	@echo "overload gate: OK"

clean:
	$(GO) clean ./...
	rm -f /tmp/gammajoin-det-1.txt /tmp/gammajoin-det-2.txt
	rm -f /tmp/gammajoin-chaos-1.txt /tmp/gammajoin-chaos-2.txt
	rm -rf /tmp/gammajoin-trace-1 /tmp/gammajoin-trace-2
	rm -f /tmp/gammajoin-avail-1.txt /tmp/gammajoin-avail-2.txt
	rm -f /tmp/gammajoin-bench.txt /tmp/gammajoin-bench-current.json
	rm -rf /tmp/gammajoin-mpl-1 /tmp/gammajoin-mpl-2
	rm -f /tmp/gammajoin-mpl-1.txt /tmp/gammajoin-mpl-2.txt
	rm -f /tmp/gammajoin-mplsweep-1.txt /tmp/gammajoin-mplsweep-2.txt
	rm -f /tmp/gammajoin-degrade-1.txt /tmp/gammajoin-degrade-2.txt
	rm -rf /tmp/gammajoin-prof-1 /tmp/gammajoin-prof-2 /tmp/gammajoin-prof-spans
	rm -f /tmp/gammajoin-prof-offline.txt /tmp/gammajoin-prof-diff-1.txt /tmp/gammajoin-prof-diff-2.txt
	rm -f /tmp/gammajoin-overload-1.txt /tmp/gammajoin-overload-2.txt
	rm -f /tmp/gammajoin-overload-w1.txt /tmp/gammajoin-overload-w2.txt
	rm -f /tmp/gammajoin-overload-m1.tsv /tmp/gammajoin-overload-m2.tsv
