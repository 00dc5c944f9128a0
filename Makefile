# spectrebench — reproduce "Performance Evolution of Mitigating Transient
# Execution Attacks" (EuroSys '22). Targets mirror the workflow in README.md.

GO ?= go

.PHONY: all build test test-short test-race bench experiments faults-smoke serve-smoke examples vet cover clean

all: vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -timeout 40m ./...

# Regenerate every table and figure as testing.B benchmarks.
bench:
	$(GO) test -bench=. -benchmem

# Run the full experiment registry through the CLI.
experiments:
	$(GO) run ./cmd/spectrebench run all

# Crash-safety smoke: every experiment must complete (status ok) under
# deterministic fault injection at a fixed seed.
faults-smoke:
	$(GO) run ./cmd/spectrebench -faults -seed 1 run all

# Sweep-as-a-service lifecycle smoke: cold sweep, warm (100% store-hit)
# sweep after a restart, kill -9 mid-sweep, recovery, graceful drain.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/attribution
	$(GO) run ./examples/js-sandbox
	$(GO) run ./examples/spectre-poc
	$(GO) run ./examples/vm-boundary

cover:
	$(GO) test -cover ./internal/...

# Reproduce the artifacts the repository ships with.
test_output.txt bench_output.txt:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
