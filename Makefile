GO ?= go

.PHONY: all build vet fmt test race bench cluster-bench cluster-bench-sharded shard-smoke bench-smoke profile sweep-smoke chaos-smoke coords-smoke coords-bench workload-smoke trace-smoke qserve-bench obs-bench check clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails if gofmt would change any file, and lists them.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate: build, vet, gofmt, and the full test suite under
# the race detector.
check: build vet fmt race

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# cluster-bench runs the event-engine throughput benchmark (N=2000
# endsystems, 6 hours of virtual time) and persists events/sec, ns/event
# and allocs/event — next to the pinned pre-timer-wheel baseline — in
# BENCH_cluster.json.
cluster-bench:
	$(GO) test -run '^$$' -bench BenchmarkClusterSteadyState -benchtime=3x -benchmem .

# cluster-bench-sharded runs the sharded-engine scaling benchmark: an
# N=100,000 cluster on the 8-worker region-sharded engine, once at
# GOMAXPROCS=1 and once at GOMAXPROCS=8 (identical event sequences —
# the benchmark fails if the counts diverge), and writes the
# "sharded_100k" entry of BENCH_cluster.json with the events/s ratio.
cluster-bench-sharded:
	$(GO) test -run '^$$' -bench BenchmarkClusterSharded100k -benchtime=1x -timeout 60m .

# shard-smoke is the CI scale gate for the sharded engine: an N=1,000,000
# cluster must construct and complete a short horizon in one process
# (compact routing rows, lazy table fill, per-endpoint stats off).
shard-smoke:
	SEAWEED_SHARD_SMOKE=1 $(GO) test -run TestShardedMillionSmoke -v -timeout 60m .

# bench-smoke is the CI benchmark gate: one iteration of the engine
# benchmark. It fails on build errors and panics, never on timing.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkClusterSteadyState -benchtime=1x -benchmem .

# profile captures CPU and heap profiles of the engine benchmark.
# Inspect with `go tool pprof cpu.pprof` (top, list, web). For profiling
# a specific experiment instead, see seaweed-sim's -cpuprofile,
# -memprofile and -profileruns flags.
profile:
	$(GO) test -run '^$$' -bench BenchmarkClusterSteadyState -benchtime=3x \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"

# sweep-smoke is the CI smoke test: a shrunken parallel sweep that
# exercises the engine and the sinks end to end.
sweep-smoke:
	$(GO) run ./cmd/seaweed-sim -sweep -smoke -parallel 2 -out sweep-smoke

# chaos-smoke is the CI fault-injection gate: every built-in chaos
# scenario at smoke scale, each run judged by the always-on invariant
# checker (exit 1 on any violation). Reports land in chaos-<name>.json.
chaos-smoke:
	@for s in partition burstloss flap mixed straggler; do \
		echo "== chaos $$s =="; \
		$(GO) run ./cmd/seaweed-sim -chaos $$s -smoke -out chaos-$$s || exit 1; \
	done

# coords-smoke is the CI gate for the network-coordinate subsystem: the
# paired ablation study (coords-biased trees must strictly beat the
# id-only baseline on fan-in edge p50 and query p50) plus the unit suite
# (Vivaldi convergence, ball-tree vs brute force, frozen scopes) and one
# end-to-end CLI run of the RTT-scoped query demo, which exits 1 itself
# if the scoped result diverges from the brute-force oracle.
coords-smoke:
	$(GO) test -run TestCoordsSmoke -v ./internal/experiments/
	$(GO) test -v ./internal/coords/
	$(GO) run ./cmd/seaweed-sim -coords -rtt-scope 50ms -smoke

# coords-bench runs the full-scale paired coordinate ablation and writes
# the "coords_fanin" entry of BENCH_cluster.json (fan-in edge p50 and
# query p50, Vivaldi-biased vs id-only trees). Fails if coords stops
# strictly beating the baseline on either metric.
coords-bench:
	$(GO) test -run '^$$' -bench BenchmarkCoordsFanin -benchtime=1x .

# workload-smoke is the CI query-service gate: the smoke sweep test
# (byte-determinism at 1 vs 8 engine workers, ablation teeth on
# interactive p99) plus one end-to-end CLI sweep, which exits 1 itself if
# a tooth fails. Report lands in workload-smoke.json.
workload-smoke:
	$(GO) test -run TestWorkloadSmoke -v ./internal/experiments/
	$(GO) run ./cmd/seaweed-sim -workload heavy -smoke -parallel 2 -out workload-smoke

# qserve-bench runs the full-scale query-service sweep (N=2000, the heavy
# mix pushed to 300 interactive queries/hour so hundreds of queries are
# open concurrently under ~1.8x overload) and writes BENCH_qserve.json:
# per-variant p50/p99 time-to-90%-completeness plus the ablation teeth
# verdicts. Exits 1 if an ablation fails to degrade interactive p99.
qserve-bench:
	$(GO) run ./cmd/seaweed-sim -workload heavy -qps 300 -parallel 0 -out BENCH_qserve

# trace-smoke is the CI causal-tracing gate: a small traced workload
# with spans on, whose per-query critical-path decompositions must sum
# exactly to the queries' end-to-end latencies (seaweed-trace -check
# exits 1 otherwise), plus the time-series sampler and the obs overhead
# benchmark as a build/panic smoke.
trace-smoke:
	$(GO) run ./cmd/seaweed-sim -workload spike -smoke -ablate priority \
		-trace trace-smoke.jsonl -timeseries trace-smoke-ts.jsonl -metrics-out trace-smoke-metrics.json
	$(GO) run ./cmd/seaweed-trace -breakdown trace-smoke.jsonl -check | tail -n 12
	$(GO) test -bench=BenchmarkObsOverhead -benchtime=1x -run=^$$ .

# obs-bench measures the cost of the default-on observability layer
# (must stay under 5%).
obs-bench:
	$(GO) test -bench=BenchmarkObsOverhead -benchtime=3x -run=^$$ .

clean:
	$(GO) clean ./...
