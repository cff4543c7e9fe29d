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
# linter's package fan-out); the simulator itself is single-goroutine.
race:
	$(GO) test -race ./internal/exec/... ./internal/memory/... ./internal/resctrl/... ./internal/fault/... ./internal/lint/...

# The repo benchmark declared in BENCHMARK.json (see bench/README.md).
bench:
	$(GO) run -C bench .

chaos:
	sh scripts/check.sh chaos

overload:
	sh scripts/check.sh overload

check:
	sh scripts/check.sh
