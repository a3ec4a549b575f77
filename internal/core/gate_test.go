package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/rng"
)

// The CI perf gates time two arms of one workload in gateSlices slices
// of about gateSlice each. Slices come in pairs, one base-first and one
// candidate-first, because the arm that runs second pays for the switch
// from the other; which comes first is a seeded coin flip, so a
// periodic disturbance, such as a collection every few heap builds,
// cannot fall on one arm. Each arm moves to a freshly built instance of
// its workload every gateRebuild slices, outside the timing: identical
// heaps built in one process ran up to 20% apart (eight magazine arms
// interleaved on a 2-vCPU host), so an arm built once carries its
// heap's placement into every slice. The median over the pairs' ratios
// shrugs off the slices a scheduler hiccup spoils; short slices leave
// most of them clean. On a shared 2-vCPU host the obs-off gate's median
// spread 1.2% run to run with 200 slices of 10 ms, against 0.3–0.5%
// with 800 of 2.5 ms.
const (
	gateSlice   = 2500 * time.Microsecond
	gateSlices  = 800
	gateRebuild = 4
)

// An instance is one built copy of an arm's workload: run runs n rounds
// on it, and check, when set, must pass once the instance retires.
type instance struct {
	run   func(n int) error
	check func() error
}

// churn runs n rounds of one arm's workload and returns their time.
type churn func(n int) (time.Duration, error)

// rebuilt returns a churn that runs on an instance from build, replaced
// by a fresh one every gateRebuild runs; building and checking are not
// timed. The last instance is checked when the benchmark ends.
func rebuilt(b *testing.B, build func() (instance, error)) churn {
	var cur instance
	runs := 0
	retire := func() {
		if cur.check != nil {
			if err := cur.check(); err != nil {
				b.Error(err)
			}
		}
	}
	b.Cleanup(retire)
	return func(n int) (time.Duration, error) {
		if runs%gateRebuild == 0 {
			retire()
			var err error
			if cur, err = build(); err != nil {
				return 0, err
			}
		}
		runs++
		start := time.Now()
		err := cur.run(n)
		return time.Since(start), err
	}
}

// pairedRatio times the base and candidate arms in gateSlices/2 pairs
// of slices and returns the median over the pairs of the
// candidate/base ratio of time per round, and each arm's median time
// per round in ns.
func pairedRatio(b *testing.B, base, cand churn) (ratio, baseNs, candNs float64) {
	arms := [2]churn{base, cand}
	rounds := calibrate(b, base)
	order := rng.NewSeeded(3)
	var ns [2][]float64
	ratios := make([]float64, gateSlices/2)
	for i := range ratios {
		var sum [2]float64
		first := order.Intn(2)
		for _, a := range [4]int{first, 1 - first, 1 - first, first} {
			d, err := arms[a](rounds)
			if err != nil {
				b.Fatal(err)
			}
			t := float64(d.Nanoseconds()) / float64(rounds)
			ns[a] = append(ns[a], t)
			sum[a] += t
		}
		ratios[i] = sum[1] / sum[0]
	}
	return median(ratios), median(ns[0]), median(ns[1])
}

// calibrate doubles the rounds of a run until one lasts half a slice,
// and returns the rounds that fill one slice. Both arms of a gate run
// that many rounds a slice, so each instance serves both arms equally
// many rounds from its start.
func calibrate(b *testing.B, run churn) int {
	for n := 1; ; n *= 2 {
		d, err := run(n)
		if err != nil {
			b.Fatal(err)
		}
		if d >= gateSlice/2 {
			return int(int64(n)*int64(gateSlice)/int64(d)) + 1
		}
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// A front is what a threshold workload's mallocs and frees go through.
type front int

const (
	viaHeap     front = iota // the heap itself
	viaLocked                // the locked reference engine (lockedHeap)
	viaMagazine              // a magazine over the heap
)

// thresholdPairs builds the 64 B threshold workload on a heap built
// with opts: the class is filled to its 1/M threshold, and the returned
// function runs n rounds, each freeing a random live object and
// mallocing its replacement, all through fr. A magazine carries
// opts.Trace, and its fill leaves 2·MagazineMaxCap of headroom: a
// magazine may hold that many pre-claimed slots and buffered frees
// beyond its live objects, and a refill at the exact threshold would
// fail.
func thresholdPairs(opts Options, fr front) (func(n int) error, error) {
	h, err := New(opts)
	if err != nil {
		return nil, err
	}
	var a allocator = h
	_, live := h.ClassSlots(ClassFor(64))
	switch fr {
	case viaLocked:
		a = newLockedHeap(h)
	case viaMagazine:
		m, err := h.NewMagazine()
		if err != nil {
			return nil, err
		}
		m.SetTrace(opts.Trace)
		a, live = m, live-2*MagazineMaxCap
	}
	ptrs := make([]heap.Ptr, live)
	for i := range ptrs {
		if ptrs[i], err = a.Malloc(64); err != nil {
			return nil, err
		}
	}
	r := rng.NewSeeded(2)
	return func(n int) error {
		for i := 0; i < n; i++ {
			j := r.Intn(len(ptrs))
			if err := a.Free(ptrs[j]); err != nil {
				return err
			}
			p, err := a.Malloc(64)
			if err != nil {
				return err
			}
			ptrs[j] = p
		}
		return nil
	}, nil
}

// thresholdChurn is the threshold workload as a gate arm.
func thresholdChurn(b *testing.B, opts Options, fr front) churn {
	return rebuilt(b, func() (instance, error) {
		pairs, err := thresholdPairs(opts, fr)
		return instance{run: pairs}, err
	})
}

// crossWorkers and crossBatch shape the cross-free workload: each round
// makes crossWorkers·crossBatch malloc/free pairs.
const (
	crossWorkers = 4
	crossBatch   = 64
)

// crossFreeChurn is the cross-worker free workload as a gate arm:
// crossWorkers goroutines form a ring over one sharded heap with
// remote-free rings. Each round, every worker mallocs a batch of 64 B
// objects through its magazine, hands it to the next worker, and frees
// the batch it receives, through ShardedHeap.Free (the freer CAS-clears
// the owner's bitmap) or ShardedHeap.RemoteFree (one ring enqueue the
// owner drains in batches). The heap is identical for both, so the
// pair isolates the free protocol. Every retired heap must pass
// CheckInvariants. The ratio depends on the heap's age: ~70 rounds on a
// fresh heap read ~0.99, the ~300 an instance serves here 0.91–0.93,
// and a heap kept for the whole gate 0.86–1.19 across processes.
func crossFreeChurn(b *testing.B, remote bool) churn {
	return rebuilt(b, func() (instance, error) {
		sh, err := NewSharded(crossWorkers, Options{
			HeapSize: crossWorkers * 12 << 20, Seed: 7, Concurrent: true, RemoteRing: true,
		})
		if err != nil {
			return instance{}, err
		}
		chans := make([]chan []heap.Ptr, crossWorkers)
		mags := make([]*Magazine, crossWorkers)
		for w := range mags {
			chans[w] = make(chan []heap.Ptr, 2)
			if mags[w], err = sh.NewMagazine(); err != nil {
				return instance{}, err
			}
		}
		free := sh.Free
		if remote {
			free = sh.RemoteFree
		}
		run := func(n int) error {
			var wg sync.WaitGroup
			errs := make([]error, crossWorkers)
			for w := 0; w < crossWorkers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// A worker that hits an error keeps trading batches,
					// so its neighbours never block on it.
					for round := 0; round < n; round++ {
						ptrs := make([]heap.Ptr, 0, crossBatch)
						for i := 0; i < crossBatch && errs[w] == nil; i++ {
							p, err := mags[w].Malloc(64)
							if err != nil {
								errs[w] = err
								break
							}
							ptrs = append(ptrs, p)
						}
						chans[(w+1)%crossWorkers] <- ptrs
						for _, p := range <-chans[w] {
							if err := free(p); err != nil {
								errs[w] = err
							}
						}
					}
				}(w)
			}
			wg.Wait()
			return errors.Join(errs...)
		}
		check := func() error {
			for _, m := range mags {
				m.Close()
			}
			if err := sh.CheckInvariants(); err != nil {
				return fmt.Errorf("cross-free churn (remote=%v): %w", remote, err)
			}
			return nil
		}
		return instance{run: run, check: check}, nil
	})
}

// BenchmarkGate holds CI's allocator perf gates. Each sub-benchmark
// times its two arms with pairedRatio, reports the median ratio and both
// arms' median ns per malloc/free pair, and fails when the ratio exceeds
// its bound:
//
//	go test -run '^$' -bench BenchmarkGate -benchtime 1x ./internal/core
//
// All four take about 16 s on a 2-vCPU host.
func BenchmarkGate(b *testing.B) {
	plain := Options{HeapSize: 48 << 20, Seed: 1}
	// The obs-off arm is the magazine arm run a second time with a nil
	// trace ring. A nil ring is the zero Options value, so both arms run
	// identical code: this gate bounds the harness's own A/A noise at
	// 2%. What can catch a cost in the disabled path is
	// TestObsTracePlacementUnchanged, which requires the pair to
	// allocate nothing with the ring nil or live.
	obsOff := plain
	obsOff.Trace = (*obs.Ring)(nil)
	for _, g := range []struct {
		name       string
		base, cand string // arm names, for the ns/op metrics
		bound      float64
		slower     string // failure message, given the slowdown in percent
		pairs      int    // malloc/free pairs per round
		arms       func(b *testing.B) (base, cand churn)
	}{
		{"lockfree_vs_locked", "locked", "lockfree", 1.05,
			"lock-free malloc fast path is %.1f%% slower than the locked reference (bound: 5%%)", 1,
			func(b *testing.B) (churn, churn) {
				return thresholdChurn(b, plain, viaLocked), thresholdChurn(b, plain, viaHeap)
			}},
		{"magazine_vs_lockfree", "lockfree", "magazine", 1.10,
			"magazine malloc fast path is %.1f%% slower than the raw lock-free path (bound: 10%%)", 1,
			func(b *testing.B) (churn, churn) {
				return thresholdChurn(b, plain, viaHeap), thresholdChurn(b, plain, viaMagazine)
			}},
		{"remote_vs_sync_w4", "sync", "remote", 1.05,
			"remote-free cross-worker churn is %.1f%% slower than synchronous frees (bound: 5%%)", crossWorkers * crossBatch,
			func(b *testing.B) (churn, churn) {
				return crossFreeChurn(b, false), crossFreeChurn(b, true)
			}},
		{"obs_off_vs_magazine", "magazine", "obs_off", 1.02,
			"disabled flight recorder costs %.1f%% on the magazine hot path (bound: 2%%)", 1,
			func(b *testing.B) (churn, churn) {
				return thresholdChurn(b, plain, viaMagazine), thresholdChurn(b, obsOff, viaMagazine)
			}},
	} {
		b.Run(g.name, func(b *testing.B) {
			base, cand := g.arms(b)
			ratio, baseNs, candNs := pairedRatio(b, base, cand)
			baseNs, candNs = baseNs/float64(g.pairs), candNs/float64(g.pairs)
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(ratio, "ratio")
			b.ReportMetric(baseNs, g.base+"-ns/op")
			b.ReportMetric(candNs, g.cand+"-ns/op")
			if ratio > g.bound {
				b.Logf("%s %.2f ns/op, %s %.2f ns/op, ratio %.3f (bound %.2f)", g.base, baseNs, g.cand, candNs, ratio, g.bound)
				b.Fatalf(g.slower, (ratio-1)*100)
			}
		})
	}
}
