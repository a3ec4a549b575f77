# Convenience targets for the DieHard reproduction.

GO ?= go

.PHONY: all build vet test race bench bench-smoke fig5

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Concurrency tests under the race detector (short mode: skips the long
# statistical reproductions, keeps every concurrency test).
race:
	$(GO) test -race -short ./...

# Full benchmark sweep (paper figures + ablations).
bench:
	$(GO) test -run xxx -bench . -benchtime 1s .

# Perf gates (BenchmarkGate in internal/core): lock-free malloc pair
# within 5% of the test-only locked reference engine, magazine within 10% of
# lock-free, remote-free ring churn within 5% of sync cross-frees, and
# the obs-off magazine arm within 2% of the magazine arm, each gate on
# the median ratio over 800 interleaved 2.5 ms slices.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkGate -benchtime 1x ./internal/core

# Reproduce Figure 5 on both platforms.
fig5:
	$(GO) run ./cmd/overhead -platform linux
	$(GO) run ./cmd/overhead -platform windows
