#!/bin/sh
# check.sh — the repository's full verification gate: compile, vet,
# domain lint (cachelint), unit tests, and the race detector over the
# packages that start a goroutine, run beside one, or make up a System
# that two goroutines may each own. Run from
# anywhere inside the module; CI and pre-merge reviews run exactly this.
#
# Every mode first builds the module and the benchmark (bench/, a module
# of its own that imports the root package), so a change to the root
# API that breaks the benchmark fails lint and test too.
#
# Usage: check.sh [lint|test|bench|fuzz|all]
#   lint     build + gofmt + vet (copylocks included) + cachelint (the
#            CI lint job); fails when gofmt -l names any file
#   test     build + unit tests; the race detector over the packages
#            below, and over the harness's fault-injection and
#            degraded-mode tests; exec, engine and workload at -cpu 1,2;
#            every Go benchmark of the module run once (the CI test job)
#   bench    the repo benchmark's own gate (bench/ is a module of its
#            own, outside `go test ./...`): vet, its tests, and a
#            -quick run whose self-checks compare CountInRange with the
#            naive Get loop, the cachesim probes' outcome shares, and
#            the digests of repeated runs (the CI bench job)
#   fuzz     a 10 s smoke run of each fuzz target beyond its checked-in
#            seeds: FuzzCountInRange (packed scan against the Get loop),
#            FuzzPackRun (the run writer against the per-row Set loop),
#            FuzzCacheOps (word-at-a-time sets against the stamp
#            reference), FuzzRandMatchesMathRand (the generators'
#            bulk rng against math/rand's own) and FuzzEncodeColumns
#            (the two-core column job against the serial loop) (the CI
#            fuzz job)
#   all      every gate, in order (the default)
#
# No mode re-runs, under a -run filter, tests that `go test ./...` in
# `test` has already run: a mode exists only for what it adds.
set -eu

cd "$(dirname "$0")/.."

mode="${1:-all}"
case "$mode" in
lint | test | bench | fuzz | all) ;;
*)
	echo "check.sh: unknown mode '$mode' (want lint, test, bench, fuzz, or all)" >&2
	exit 2
	;;
esac

echo '== go build ./...'
go build ./...

echo '== go build -C bench -o /dev/null .'
go build -C bench -o /dev/null .

if [ "$mode" = lint ] || [ "$mode" = all ]; then
	echo '== gofmt -l .'
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "check.sh: gofmt would reformat:" >&2
		echo "$unformatted" >&2
		exit 1
	fi

	echo '== go vet ./...'
	go vet ./...

	# Both checks, nondet and errcheck; //lint:allow is the one escape
	# hatch. Hot-path allocation is gated in `test` instead, by the alloc
	# budgets (exec, cachesim and engine alloc_test.go), which name the
	# allocating line when they fail.
	echo '== go run ./cmd/cachelint ./...'
	go run ./cmd/cachelint ./...
fi

if [ "$mode" = test ] || [ "$mode" = all ]; then
	echo '== go test ./...'
	go test ./...

	# The packages that start a goroutine, the scan's count (column) or
	# the first half of a generated column job (workload), or run beside the
	# count, the controllers called back from inside the loop (adapt,
	# serve), and the address space and control planes a System owns
	# (memory, resctrl, fault): engine's TestIndependentSystemsShareNothing
	# runs two Systems at once. internal/lint holds no sync primitive and
	# starts no goroutine, so it is not here.
	echo '== go test -race (column, exec, engine, adapt, serve, workload, memory, resctrl, fault)'
	go test -race ./internal/column/... ./internal/exec/... ./internal/engine/... ./internal/adapt/... ./internal/serve/... ./internal/workload/... ./internal/memory/... ./internal/resctrl/... ./internal/fault/...

	# The harness is too slow to run whole under the race detector;
	# its fault-injection, degraded-mode and telemetry-gap tests are the
	# slice that drives the control planes end to end. Each of them
	# builds its own System and is t.Parallel, so the slice also runs
	# those Systems concurrently, up to GOMAXPROCS at a time.
	echo '== go test -race (harness: fault injection, degraded mode, telemetry gaps)'
	go test -race -run 'Fault|Chaos|Gap|Degrad|ErrorPath|Retry' ./internal/harness/...

	# The scan's count goroutine interleaved with the simulation, and the
	# generators' column-job helper with the caller's half, on one P,
	# and beside them on two.
	echo '== go test -cpu 1,2 (exec, engine, workload)'
	go test -cpu 1,2 ./internal/exec/... ./internal/engine/... ./internal/workload/...

	# `go test ./...` compiles the Benchmark functions but runs none;
	# one iteration each keeps them running. Their timings are not
	# checked.
	echo '== go test -bench . -benchtime 1x ./...'
	go test -run '^$' -bench . -benchtime 1x ./...
fi

if [ "$mode" = bench ] || [ "$mode" = all ]; then
	echo '== go vet -C bench .'
	go vet -C bench .

	echo '== go test -C bench .'
	go test -C bench .

	echo '== go run -C bench . -quick'
	go run -C bench . -quick
fi

if [ "$mode" = fuzz ] || [ "$mode" = all ]; then
	# One target per invocation: go test -fuzz accepts a single match.
	echo '== go test -fuzz FuzzCountInRange -fuzztime 10s ./internal/column'
	go test -run '^$' -fuzz '^FuzzCountInRange$' -fuzztime 10s ./internal/column

	echo '== go test -fuzz FuzzPackRun -fuzztime 10s ./internal/column'
	go test -run '^$' -fuzz '^FuzzPackRun$' -fuzztime 10s ./internal/column

	echo '== go test -fuzz FuzzCacheOps -fuzztime 10s ./internal/cachesim'
	go test -run '^$' -fuzz '^FuzzCacheOps$' -fuzztime 10s ./internal/cachesim

	echo '== go test -fuzz FuzzRandMatchesMathRand -fuzztime 10s ./internal/workload'
	go test -run '^$' -fuzz '^FuzzRandMatchesMathRand$' -fuzztime 10s ./internal/workload

	echo '== go test -fuzz FuzzEncodeColumns -fuzztime 10s ./internal/workload'
	go test -run '^$' -fuzz '^FuzzEncodeColumns$' -fuzztime 10s ./internal/workload
fi

echo "check.sh: $mode gate(s) passed"
