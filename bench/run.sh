#!/bin/sh
# BENCHMARK.json's command. Builds the benchmark from source inside the
# checkout — build cache and binary under .bench_build, nothing outside —
# and runs it with the driver's arguments:
#
#   sh bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# In a directory without the repository's go.mod the build fails and the
# script exits non-zero without printing a result.
set -e
mkdir -p .bench_build
GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -o .bench_build/seaweed-bench ./bench
exec .bench_build/seaweed-bench "$@"
