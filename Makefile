# Standard developer entry points. `make check` is the full gate that
# scripts/check.sh (and CI) runs.

GO ?= go

.PHONY: build test lint bench check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The CI lint job: build, gofmt -l, vet and cachelint.
lint:
	sh scripts/check.sh lint

# The repo benchmark declared in BENCHMARK.json (see bench/README.md).
bench:
	$(GO) run -C bench .

check:
	sh scripts/check.sh
