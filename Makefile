GO ?= go

.PHONY: all build vet fmt test race bench sweep-smoke workload-smoke trace-smoke check clean

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

# bench runs the repository's benchmark (bench/, declared in
# BENCHMARK.json): every workload, the traced run and the layer drivers.
# Reports land in bench/out/.
bench:
	$(GO) run ./bench

# sweep-smoke is the CI smoke test: a shrunken parallel sweep that
# exercises the engine and the sweep's JSONL records end to end.
sweep-smoke:
	$(GO) run ./cmd/seaweed-sim -sweep -smoke -parallel 2 -out sweep-smoke

# workload-smoke is the CI query-service gate: one end-to-end CLI sweep,
# which exits 1 itself if an ablation tooth on interactive p99 fails.
# Report lands in workload-smoke.json. The sweep's byte-determinism at 1
# vs 8 sweep workers (TestWorkloadSmoke) runs under `make test`.
workload-smoke:
	$(GO) run ./cmd/seaweed-sim -workload heavy -smoke -parallel 2 -out workload-smoke

# trace-smoke is the CI causal-tracing gate: a small traced workload
# with spans on, whose per-query critical-path decompositions must sum
# exactly to the queries' end-to-end latencies (seaweed-trace -check
# exits 1 otherwise), plus the time-series sampler.
trace-smoke:
	$(GO) run ./cmd/seaweed-sim -workload spike -smoke -ablate priority \
		-trace trace-smoke.jsonl -timeseries trace-smoke-ts.jsonl -metrics-out trace-smoke-metrics.json
	$(GO) run ./cmd/seaweed-trace -breakdown trace-smoke.jsonl -check | tail -n 12

# clean removes what building, testing and the smoke targets leave behind
# (the list .gitignore holds).
clean:
	$(GO) clean ./...
	rm -rf .bench_build bench/out
	rm -f *.test *.pprof chaos-*.json sweep-smoke.jsonl \
		workload-smoke.json trace-smoke*.jsonl trace-smoke-metrics.json
