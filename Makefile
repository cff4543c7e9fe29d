# Standard developer entry points. `make check` is the full gate that
# scripts/check.sh (and CI) runs.

GO ?= go

.PHONY: build test lint perflint race chaos overload check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/cachelint -baseline .cachelint-baseline.jsonl ./...

# The performance tier alone: hot-path findings over the //perf:hot
# reachability set, without the correctness tiers' runtime.
perflint:
	$(GO) run ./cmd/cachelint -tier=perf ./...

# The packages that hold sync primitives (atomics, mutexes, the
# linter's package fan-out) and those that run the column scan, whose
# count is the one goroutine beside the otherwise single-goroutine
# simulator; exec and engine again on one P and on two, so that helper
# is seen both interleaved with the simulation and beside it.
race:
	$(GO) test -race ./internal/exec/... ./internal/engine/... ./internal/workload/... ./internal/memory/... ./internal/resctrl/... ./internal/fault/... ./internal/lint/...
	$(GO) test -cpu 1,2 ./internal/exec/... ./internal/engine/...

# The repo benchmark declared in BENCHMARK.json (see bench/README.md).
bench:
	$(GO) run -C bench .

chaos:
	sh scripts/check.sh chaos

overload:
	sh scripts/check.sh overload

check:
	sh scripts/check.sh
