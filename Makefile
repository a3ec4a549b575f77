# Convenience targets for the DieHard reproduction.

GO ?= go

.PHONY: all build vet test race bench bench-baseline bench-smoke fig5

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

# Record the memory-system perf baseline into BENCH_vmem.json under the
# given LABEL (see cmd/vmembench). CI prints the live numbers; this file
# is the repo's perf trajectory.
LABEL ?= current
bench-baseline:
	$(GO) run ./cmd/vmembench -label $(LABEL) -out BENCH_vmem.json

# Perf gates (cmd/vmembench -smoke): lock-free malloc pair w1 within 15%
# of the locked reference engine, magazine within 10% of lock-free,
# remote-free ring churn within 5% of sync cross-frees, and the disabled
# flight recorder within 2% of magazine, each gate on the medians of 5
# interleaved runs (writes nothing; safe on any host).
bench-smoke:
	$(GO) run ./cmd/vmembench -smoke

# Reproduce Figure 5 on both platforms.
fig5:
	$(GO) run ./cmd/overhead -platform linux
	$(GO) run ./cmd/overhead -platform windows
