#!/bin/sh
# check.sh — the repository's full verification gate: compile, vet,
# domain lint (cachelint), unit tests, and the race detector over the
# packages that hold sync primitives or start a goroutine. Run from
# anywhere inside the module; CI and pre-merge reviews run exactly this.
#
# Usage: check.sh [lint|test|chaos|serve|overload|bench|fuzz|all]
#   lint     build + vet + cachelint (the CI lint job)
#   test     build + unit tests + race detector + exec and engine at
#            -cpu 1,2 (the CI test job)
#   chaos    build + fault-injection/robustness tests under the race
#            detector (the CI chaos job)
#   serve    build + open-loop serving tier: queueing-theory sanity,
#            multi-seed bit-identity, chaos interop and the FigServe
#            acceptance sweep (the CI serve job)
#   overload build + SLO-aware overload control: deadlines, shedding,
#            breakers, retries, serving-plane chaos and the
#            FigOverload acceptance sweep (the CI overload job)
#   bench    the repo benchmark's own gate (bench/ is a module of its
#            own, outside `go test ./...`): vet, its tests, and a
#            -quick run whose self-checks compare CountInRange with the
#            naive Get loop, the cachesim probes' outcome shares, and
#            the digests of repeated runs (the CI bench job)
#   fuzz     a 10 s smoke run of each fuzz target beyond its checked-in
#            seeds: FuzzCountInRange (packed scan against the Get loop)
#            and FuzzCacheOps (word-at-a-time sets against the stamp
#            reference) (the CI fuzz job)
#   all      every gate, in order (the default)
set -eu

cd "$(dirname "$0")/.."

mode="${1:-all}"
case "$mode" in
lint | test | chaos | serve | overload | bench | fuzz | all) ;;
*)
	echo "check.sh: unknown mode '$mode' (want lint, test, chaos, serve, overload, bench, fuzz, or all)" >&2
	exit 2
	;;
esac

echo '== go build ./...'
go build ./...

if [ "$mode" = lint ] || [ "$mode" = all ]; then
	echo '== go vet ./...'
	go vet ./...

	# All three tiers (intra, inter, perf) against the checked-in
	# baseline of accepted findings.
	echo '== go run ./cmd/cachelint -baseline .cachelint-baseline.jsonl ./...'
	go run ./cmd/cachelint -baseline .cachelint-baseline.jsonl ./...
fi

if [ "$mode" = test ] || [ "$mode" = all ]; then
	echo '== go test ./...'
	go test ./...

	echo '== go test -race (exec, engine, workload, memory, resctrl, fault, lint)'
	go test -race ./internal/exec/... ./internal/engine/... ./internal/workload/... ./internal/memory/... ./internal/resctrl/... ./internal/fault/... ./internal/lint/...

	# The scan's count goroutine interleaved with the simulation on one
	# P, and beside it on two.
	echo '== go test -cpu 1,2 (exec, engine)'
	go test -cpu 1,2 ./internal/exec/... ./internal/engine/...
fi

if [ "$mode" = serve ] || [ "$mode" = all ]; then
	echo '== go test (serving tier: generator, admission, dispatch, M/M/1)'
	go test ./internal/serve/... ./internal/engine/ -run 'Serve|Arrival|MM1|Admission|TokenBucket|Discipline|OpenLoop|StreamQueryStamps'

	echo '== go test (FigServe sweep: acceptance, determinism, chaos interop)'
	go test -run 'FigServe' ./internal/harness/...
fi

if [ "$mode" = overload ] || [ "$mode" = all ]; then
	echo '== go test (overload control: deadlines, shedding, breakers, retries, serve-plane chaos)'
	go test ./internal/serve/... ./internal/fault/... \
		-run 'Overload|Deadline|Shed|Breaker|RetryBudget|Burst|ServePlane|ServeConfig|UniformServe'

	echo '== go test (FigOverload sweep: acceptance, chaos replay)'
	go test -run 'FigOverload' ./internal/harness/...
fi

if [ "$mode" = chaos ] || [ "$mode" = all ]; then
	echo '== go test -race (fault injection, degraded mode, telemetry gaps)'
	go test -race -run 'Fault|Chaos|Gap|Degrad|ErrorPath|Retry' \
		./internal/fault/... ./internal/engine/... ./internal/adapt/... \
		./internal/resctrl/... ./internal/harness/...
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

	echo '== go test -fuzz FuzzCacheOps -fuzztime 10s ./internal/cachesim'
	go test -run '^$' -fuzz '^FuzzCacheOps$' -fuzztime 10s ./internal/cachesim
fi

echo "check.sh: $mode gate(s) passed"
