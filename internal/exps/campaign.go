package exps

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the shared worker-pool campaign runner behind every
// Monte-Carlo experiment in the package. The design rule that makes
// parallel campaigns byte-identical to sequential ones (DESIGN.md §7):
//
//  1. a campaign is a fixed list of independent trials, indexed 0..n-1;
//  2. everything random in trial i derives from a seed that is a pure
//     function of the campaign seed and i (DeriveSeed), never from
//     shared generator state;
//  3. results are stored by trial index and reduced in index order.
//
// Scheduling then affects only *when* a trial runs, never what it
// computes or where its result lands, so workers=N and workers=1 produce
// identical bytes.

// Workers resolves a worker-count request: values below 1 select
// GOMAXPROCS, the engine's default.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// DeriveSeed returns the random seed for trial i of a campaign keyed by
// base. It is a SplitMix64 step — the finalizer scrambles every bit of
// (base, i) into the seed, so per-trial streams are decorrelated even
// for consecutive trial indices and small campaign seeds. Deterministic:
// the same (base, i) always yields the same seed, which is what keeps
// parallel campaigns reproducible and every failure replayable from its
// trial index alone. The result is never 0, so allocators seeded with it
// stay deterministic rather than drawing entropy.
func DeriveSeed(base uint64, trial int) uint64 {
	z := base + (uint64(trial)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		return 0x5EED // seed 0 means "draw true randomness" downstream
	}
	return z
}

// MapTrials runs fn(i) for every i in [0, n) on `workers` goroutines and
// returns the results in index order. Trials are claimed from a shared
// counter (work stealing), so uneven trial costs balance across workers.
// The first error cancels the remaining unclaimed trials and is returned;
// with workers <= 1 the trials run inline, sequentially, on the caller's
// goroutine — the reference ordering the determinism tests compare
// against.
func MapTrials[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				r, err := fn(i)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil, firstErr
	}
	return results, nil
}
