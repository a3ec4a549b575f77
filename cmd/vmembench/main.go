// Command vmembench records the repository's memory-system performance
// baseline: raw load/store latency through vmem.Space, bulk throughput,
// and the DieHard malloc/free steady state that BenchmarkMallocProbes
// measures. Results are merged into a JSON file keyed by label, so the
// file accumulates the perf trajectory across implementations:
//
//	go run ./cmd/vmembench -label radix -out BENCH_vmem.json
//
// The Makefile target `make bench-baseline` does exactly that.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"diehard/internal/core"
	"diehard/internal/detect"
	"diehard/internal/exps"
	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/replicate"
	"diehard/internal/rng"
	"diehard/internal/vmem"
)

// Run is one labeled measurement set. CPUs records the host parallelism
// the concurrent numbers were measured under — a w8 result on a 1-CPU
// host measures overhead, not scaling.
type Run struct {
	Date    string             `json:"date"`
	Go      string             `json:"go"`
	CPUs    int                `json:"cpus,omitempty"`
	NsPerOp map[string]float64 `json:"ns_per_op"`
}

// File is the on-disk schema of BENCH_vmem.json.
type File struct {
	PageSize int            `json:"pagesize"`
	Runs     map[string]Run `json:"runs"`
}

func bench(f func(b *testing.B)) float64 {
	r := testing.Benchmark(f)
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// benchWorkers measures aggregate throughput: `workers` goroutines each
// run fn(worker) ops times; the result is wall nanoseconds per operation
// across all workers (lower = more total throughput). With more workers
// than cores this degenerates to time-sliced overhead measurement, which
// is why the recorded Run carries the CPU count.
func benchWorkers(workers, ops int, fn func(worker, i int) error) (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := fn(w, i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(wall.Nanoseconds()) / float64(workers*ops), nil
}

func main() {
	var (
		label = flag.String("label", "current", "label for this measurement set")
		out   = flag.String("out", "BENCH_vmem.json", "output file (merged in place)")
		force = flag.Bool("force", false, "allow a 1-CPU rerun to overwrite an entry recorded on a multicore host")
		smoke = flag.Bool("smoke", false, "run the CI perf gates (each on medians of interleaved runs) and exit without writing the baseline file")
	)
	flag.Parse()

	if *smoke {
		runSmoke()
		return
	}

	// Read the baseline once: the provenance guard decides from it and
	// the final merge writes into it, so both see the same contents.
	file, err := readFile(*out)
	if err != nil && !os.IsNotExist(err) {
		fatal(fmt.Errorf("%s: %w", *out, err))
	}

	// Provenance guard: the concurrent and pipeline numbers only mean
	// something on the host class they were recorded on. A 1-CPU rerun
	// silently replacing a multicore recording would erase the scaling
	// curves the ROADMAP asks to capture, so it requires -force.
	if run, ok := file.Runs[*label]; ok && run.CPUs > 1 && runtime.NumCPU() == 1 && !*force {
		fatal(fmt.Errorf("label %q in %s was recorded with %d CPUs; rerunning on 1 CPU would overwrite the multicore scaling numbers (pass -force to do it anyway)",
			*label, *out, run.CPUs))
	}

	results := map[string]float64{}

	// Raw word access, one page per access: the pattern of a randomized
	// allocator, where translation cost cannot hide behind page locality.
	{
		s := vmem.NewSpace()
		base, err := s.Map(1024*vmem.PageSize, vmem.ProtRW)
		if err != nil {
			fatal(err)
		}
		for p := uint64(0); p < 1024; p++ {
			if err := s.Store64(base+p*vmem.PageSize, p); err != nil {
				fatal(err)
			}
		}
		results["raw_load64_strided"] = bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = s.Load64(base + uint64(i%1024)*vmem.PageSize + uint64(i%512)*8)
			}
		})
		results["raw_store64_strided"] = bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = s.Store64(base+uint64(i%1024)*vmem.PageSize+uint64(i%512)*8, uint64(i))
			}
		})
		results["raw_store64_sequential"] = bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = s.Store64(base+uint64(i%(1<<19)), uint64(i))
			}
		})
		buf := make([]byte, vmem.PageSize)
		results["read_bytes_page"] = bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = s.ReadBytes(base+uint64(i%1023)*vmem.PageSize+128, buf)
			}
		})
	}

	// DieHard steady-state free/malloc pair at the 1/M threshold: the
	// repository-level BenchmarkMallocProbes, reproduced here so the
	// baseline file captures it without the testing harness. Since the
	// lock-free engine landed, this entry pins Options.LockedHeap so the
	// series keeps measuring the same per-class-mutex reference path it
	// always has; lockfree_malloc_pair_w1 is the CAS engine's number on
	// the identical workload.
	results["malloc_free_pair_64B"] = benchMallocPairLocked()

	// Lock-free malloc/free pairs at the 1/M threshold, w workers
	// hammering the same size class of one heap: w1 against
	// malloc_free_pair_64B is the price of CAS over an uncontended
	// mutex (the acceptance bound is +15%); w4/w8 measure the contended
	// path, which the per-class mutex serialized before. The series is
	// kept as the no-magazine reference the magazine numbers are
	// differenced against.
	for _, w := range []int{1, 4, 8} {
		ns, err := benchMallocPairLockFree(w)
		if err != nil {
			fatal(err)
		}
		results[fmt.Sprintf("lockfree_malloc_pair_w%d", w)] = ns
	}

	// The same threshold workload through per-worker magazines
	// (DESIGN.md §11): fast-path malloc pops a pre-claimed slot and free
	// buffers locally, so the shared atomics are touched once per batch
	// instead of once per operation. w1 against lockfree_malloc_pair_w1
	// is the batching dividend uncontended (the -smoke gate holds it to
	// +10% in the worst case); w4/w8 measure the contended win.
	for _, w := range []int{1, 4, 8} {
		ns, err := benchMallocPairMagazine(w)
		if err != nil {
			fatal(err)
		}
		results[fmt.Sprintf("magazine_malloc_pair_w%d", w)] = ns
	}

	// Flight-recorder overhead (internal/obs): the magazine threshold
	// workload with the trace ring detached (off — the disabled path is
	// one nil-check branch per instrumented site, gated against the
	// plain magazine number by -smoke) and attached (on — two atomic
	// adds plus three plain stores per event, the full tracing price).
	for _, on := range []bool{false, true} {
		ns, err := benchMallocPairObs(on)
		if err != nil {
			fatal(err)
		}
		name := "obs_malloc_pair_off"
		if on {
			name = "obs_malloc_pair_on"
		}
		results[name] = ns
	}

	// Cross-worker free churn, synchronous vs remote-free rings
	// (DESIGN.md §12): a ring of workers each allocating batches
	// through its magazine and freeing the previous worker's batch —
	// every free is foreign, the worst case for owner-bitmap CAS
	// traffic. The sync series CAS-clears the owner's bitmap from the
	// freeing worker; the remote series enqueues on the owner's ring
	// and lets the owner batch the clears at its next drain. Both are
	// measured in the same process run so the ratio is host-honest;
	// the -smoke gate holds remote w4 at-or-under sync w4.
	for _, w := range []int{1, 4, 8} {
		for _, remote := range []bool{false, true} {
			ns, err := benchCrossFreePair(w, remote)
			if err != nil {
				fatal(err)
			}
			name := fmt.Sprintf("syncfree_pair_w%d", w)
			if remote {
				name = fmt.Sprintf("remotefree_pair_w%d", w)
			}
			results[name] = ns
		}
	}

	// Canary-detection overhead (internal/detect): the same steady-state
	// free/malloc churn on a detection heap — every free audits 16 slack
	// bytes and re-arms 64 canary bytes, every reuse audits the slot —
	// plus the cost of a heap-check barrier over the populated heap.
	// Compare detect_overhead_malloc_pair_48B against malloc_free_pair_64B
	// for the detection tax on the allocator hot path.
	{
		dh, err := detect.New(core.Options{HeapSize: 48 << 20, Seed: 1}, detect.Options{})
		if err != nil {
			fatal(err)
		}
		_, maxInUse := dh.ClassSlots(core.ClassFor(48))
		ptrs := make([]heap.Ptr, maxInUse)
		for i := range ptrs {
			p, err := dh.Malloc(48) // class 64: 16 bytes of audited slack
			if err != nil {
				fatal(err)
			}
			ptrs[i] = p
		}
		r := rng.NewSeeded(2)
		results["detect_overhead_malloc_pair_48B"] = bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := r.Intn(len(ptrs))
				_ = dh.Free(ptrs[j])
				p, err := dh.Malloc(48)
				if err != nil {
					b.Fatal(err)
				}
				ptrs[j] = p
			}
		})
		results["detect_overhead_heapcheck"] = bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n := dh.Detector().HeapCheck(); n != 0 {
					b.Fatalf("bench heap reported %d violations", n)
				}
			}
		})
	}

	// Generation-tag overhead (DESIGN.md §15): the same steady-state
	// churn through the fat-pointer API on a GenTags detection heap —
	// every free CASes the slot's generation odd→even before the bitmap
	// clear, every malloc bumps it even→odd after the claim, on top of
	// the full canary audit work above. Compare
	// gentag_overhead_malloc_pair_48B against
	// detect_overhead_malloc_pair_48B for the temporal-safety tax over
	// the canary tier alone.
	{
		ns, err := benchDetectPair(true)
		if err != nil {
			fatal(err)
		}
		results["gentag_overhead_malloc_pair_48B"] = ns
	}

	// Concurrent load/store throughput through one shared space: the
	// lock-free radix path under StatsShared accounting, workers on
	// disjoint page ranges.
	for _, w := range []int{1, 4, 8} {
		s := vmem.NewSpace()
		s.SetStatsMode(vmem.StatsShared)
		const pagesPerWorker = 256
		base, err := s.Map(8*pagesPerWorker*vmem.PageSize, vmem.ProtRW)
		if err != nil {
			fatal(err)
		}
		for p := uint64(0); p < 8*pagesPerWorker; p++ {
			if err := s.Store64(base+p*vmem.PageSize, p); err != nil {
				fatal(err)
			}
		}
		const ops = 400_000
		ns, err := benchWorkers(w, ops, func(worker, i int) error {
			addr := base + uint64(worker*pagesPerWorker+i%pagesPerWorker)*vmem.PageSize + uint64(i%500)*8
			_, err := s.Load64(addr)
			return err
		})
		if err != nil {
			fatal(err)
		}
		results[fmt.Sprintf("conc_load64_w%d", w)] = ns
		ns, err = benchWorkers(w, ops, func(worker, i int) error {
			addr := base + uint64(worker*pagesPerWorker+i%pagesPerWorker)*vmem.PageSize + uint64(i%500)*8
			return s.Store64(addr, uint64(i))
		})
		if err != nil {
			fatal(err)
		}
		results[fmt.Sprintf("conc_store64_w%d", w)] = ns
	}

	// Sharded malloc/free throughput: one pinned DieHard shard per
	// worker over a shared space (the Hoard-style front end), and the
	// same workload routed through the occupancy-aware stealing front
	// door (sharded_steal_pair: every malloc reads the per-shard
	// occupancy estimates and lands on the emptiest shard, every free
	// routes to the owner).
	for _, w := range []int{1, 4, 8} {
		for _, routed := range []bool{false, true} {
			sh, err := core.NewSharded(w, core.Options{HeapSize: w * 12 << 20, Seed: 3})
			if err != nil {
				fatal(err)
			}
			const slotsPerWorker = 1024
			ptrs := make([][]heap.Ptr, w)
			for i := range ptrs {
				ptrs[i] = make([]heap.Ptr, slotsPerWorker)
			}
			const ops = 100_000
			ns, err := benchWorkers(w, ops, func(worker, i int) error {
				var alloc heap.Allocator = sh
				if !routed {
					alloc = sh.Shard(worker)
				}
				slot := i % slotsPerWorker
				if p := ptrs[worker][slot]; p != heap.Null {
					if err := alloc.Free(p); err != nil {
						return err
					}
				}
				p, err := alloc.Malloc(64)
				if err != nil {
					return err
				}
				ptrs[worker][slot] = p
				return nil
			})
			if err != nil {
				fatal(err)
			}
			name := fmt.Sprintf("sharded_malloc_pair_64B_w%d", w)
			if routed {
				name = fmt.Sprintf("sharded_steal_pair_64B_w%d", w)
			}
			results[name] = ns
		}
	}

	// Replica voting, sequential barrier voter vs pipelined
	// hash-then-vote (DESIGN.md §8): one deterministic program doing
	// real heap work per 4 KB voting buffer, run at k=2/4/8 replicas
	// under both engines. Recorded as total run nanoseconds; the
	// committed output is byte-identical between engines by
	// construction (internal/replicate TestPipelinedMatchesSequential).
	{
		const rounds = 32
		prog := func(ctx *replicate.Context) error {
			line := make([]byte, replicate.DefaultBufferSize)
			for r := 0; r < rounds; r++ {
				p, err := ctx.Alloc.Malloc(replicate.DefaultBufferSize)
				if err != nil {
					return err
				}
				if err := ctx.Mem.Memset(p, byte(r), replicate.DefaultBufferSize); err != nil {
					return err
				}
				if err := ctx.Mem.ReadBytes(p, line); err != nil {
					return err
				}
				if err := ctx.Alloc.Free(p); err != nil {
					return err
				}
				if _, err := ctx.Out.Write(line); err != nil {
					return err
				}
			}
			return nil
		}
		for _, k := range []int{2, 4, 8} {
			for _, eng := range []struct {
				name  string
				voter replicate.VoterMode
			}{
				{"seq", replicate.VoterSequential},
				{"pipe", replicate.VoterPipelined},
			} {
				start := time.Now()
				res, err := replicate.Run(prog, nil, replicate.Options{
					Replicas: k, HeapSize: 16 << 20, Seed: 0xd1e, Voter: eng.voter,
				})
				if err != nil {
					fatal(err)
				}
				if res.Survivors != k || !res.Agreed {
					fatal(fmt.Errorf("replicated bench k=%d %s: %d survivors, agreed=%v",
						k, eng.name, res.Survivors, res.Agreed))
				}
				results[fmt.Sprintf("replicated_pipeline_%s_k%d", eng.name, k)] =
					float64(time.Since(start).Nanoseconds())
			}
		}
	}

	// The Figure-6-style error-table campaign, sequential vs fanned out:
	// the acceptance metric for the parallel experiment engine. Recorded
	// as total campaign nanoseconds; the outputs are byte-identical by
	// construction (see internal/exps TestErrorTableParallelDeterminism).
	for _, w := range []int{1, 8} {
		start := time.Now()
		if _, err := exps.RunErrorTable(w); err != nil {
			fatal(err)
		}
		results[fmt.Sprintf("errortable_campaign_w%d", w)] = float64(time.Since(start).Nanoseconds())
	}

	if file.Runs == nil {
		file.Runs = map[string]Run{}
	}
	file.PageSize = vmem.PageSize
	file.Runs[*label] = Run{
		Date:    time.Now().UTC().Format("2006-01-02"),
		Go:      runtime.Version(),
		CPUs:    runtime.NumCPU(),
		NsPerOp: results,
	}
	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fatal(err)
	}
	for name, ns := range results {
		fmt.Printf("%-24s %8.2f ns/op\n", name, ns)
	}
	fmt.Printf("recorded as %q in %s\n", *label, *out)
}

// benchMallocPairLocked measures the steady-state free/malloc pair at
// the 1/M threshold on the per-class-mutex reference engine
// (core.Options.LockedHeap) — the series BENCH_vmem.json has carried
// since the radix rewrite, and the baseline the lock-free engine is
// graded against.
func benchMallocPairLocked() float64 {
	h, err := core.New(core.Options{HeapSize: 48 << 20, Seed: 1, LockedHeap: true})
	if err != nil {
		fatal(err)
	}
	_, maxInUse := h.ClassSlots(core.ClassFor(64))
	ptrs := make([]heap.Ptr, maxInUse)
	for i := range ptrs {
		p, err := h.Malloc(64)
		if err != nil {
			fatal(err)
		}
		ptrs[i] = p
	}
	r := rng.NewSeeded(2)
	return bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := r.Intn(len(ptrs))
			_ = h.Free(ptrs[j])
			p, err := h.Malloc(64)
			if err != nil {
				b.Fatal(err)
			}
			ptrs[j] = p
		}
	})
}

// benchMallocPairLockFree is the identical threshold workload on the
// default lock-free CAS engine, fanned across `workers` goroutines
// hammering the same size class: the region is pre-filled to its 1/M
// threshold, partitioned across workers, and each operation frees one
// slot and CAS-claims a replacement.
func benchMallocPairLockFree(workers int) (float64, error) {
	h, err := core.New(core.Options{HeapSize: 48 << 20, Seed: 1, Concurrent: workers > 1})
	if err != nil {
		return 0, err
	}
	_, maxInUse := h.ClassSlots(core.ClassFor(64))
	per := maxInUse / workers
	ptrs := make([][]heap.Ptr, workers)
	for w := range ptrs {
		ptrs[w] = make([]heap.Ptr, per)
		for i := range ptrs[w] {
			p, err := h.Malloc(64)
			if err != nil {
				return 0, err
			}
			ptrs[w][i] = p
		}
	}
	// Top up to the exact threshold so the probe fullness matches the
	// locked baseline's workload.
	for i := workers * per; i < maxInUse; i++ {
		if _, err := h.Malloc(64); err != nil {
			return 0, err
		}
	}
	seeds := make([]*rng.MWC, workers)
	for w := range seeds {
		seeds[w] = rng.NewSeeded(uint64(w) + 2)
	}
	const ops = 200_000
	return benchWorkers(workers, ops, func(worker, i int) error {
		mine := ptrs[worker]
		j := seeds[worker].Intn(len(mine))
		if err := h.Free(mine[j]); err != nil {
			return err
		}
		p, err := h.Malloc(64)
		if err != nil {
			return err
		}
		mine[j] = p
		return nil
	})
}

// benchMallocPairMagazine is the threshold workload served through
// per-worker magazines over one lock-free heap: each worker owns a
// magazine, frees one of its slots, and mallocs a replacement, so the
// steady state exercises the batched refill/flush protocol at the same
// fullness as the unbatched series. The prefill leaves one batch of
// headroom per worker below the 1/M threshold: a magazine may hold up
// to MagazineMaxCap pre-claimed slots plus MagazineMaxCap buffered
// frees of apparent occupancy beyond its live objects, and a refill at
// the exact threshold would spuriously fail.
func benchMallocPairMagazine(workers int) (float64, error) {
	h, err := core.New(core.Options{HeapSize: 48 << 20, Seed: 1, Concurrent: workers > 1})
	if err != nil {
		return 0, err
	}
	_, maxInUse := h.ClassSlots(core.ClassFor(64))
	per := (maxInUse - workers*2*core.MagazineMaxCap) / workers
	mags := make([]*core.Magazine, workers)
	ptrs := make([][]heap.Ptr, workers)
	for w := range mags {
		if mags[w], err = h.NewMagazine(); err != nil {
			return 0, err
		}
		ptrs[w] = make([]heap.Ptr, per)
		for i := range ptrs[w] {
			p, err := mags[w].Malloc(64)
			if err != nil {
				return 0, err
			}
			ptrs[w][i] = p
		}
	}
	seeds := make([]*rng.MWC, workers)
	for w := range seeds {
		seeds[w] = rng.NewSeeded(uint64(w) + 2)
	}
	const ops = 200_000
	return benchWorkers(workers, ops, func(worker, i int) error {
		mine := ptrs[worker]
		j := seeds[worker].Intn(len(mine))
		if err := mags[worker].Free(mine[j]); err != nil {
			return err
		}
		p, err := mags[worker].Malloc(64)
		if err != nil {
			return err
		}
		mine[j] = p
		return nil
	})
}

// benchMallocPairObs is benchMallocPairMagazine's single-worker
// workload with the flight recorder wired: enabled=false sets a nil
// ring on both the heap and the magazine — the zero-value disabled
// recorder, whose entire hot-path cost is one predictable branch per
// instrumented site — and enabled=true attaches a real 4096-slot ring,
// so the pair prices the seqlock emit protocol itself. Same heap
// geometry, seed, and op count as the magazine series, so the three
// numbers difference cleanly.
func benchMallocPairObs(enabled bool) (float64, error) {
	var ring *obs.Ring
	if enabled {
		ring = obs.NewRecorder(4096).Ring(0)
	}
	h, err := core.New(core.Options{HeapSize: 48 << 20, Seed: 1, Trace: ring})
	if err != nil {
		return 0, err
	}
	_, maxInUse := h.ClassSlots(core.ClassFor(64))
	per := maxInUse - 2*core.MagazineMaxCap
	mag, err := h.NewMagazine()
	if err != nil {
		return 0, err
	}
	mag.SetTrace(ring)
	ptrs := make([]heap.Ptr, per)
	for i := range ptrs {
		if ptrs[i], err = mag.Malloc(64); err != nil {
			return 0, err
		}
	}
	r := rng.NewSeeded(2)
	const ops = 200_000
	return benchWorkers(1, ops, func(_, i int) error {
		j := r.Intn(len(ptrs))
		if err := mag.Free(ptrs[j]); err != nil {
			return err
		}
		p, err := mag.Malloc(64)
		if err != nil {
			return err
		}
		ptrs[j] = p
		return nil
	})
}

// benchCrossFreePair measures the cross-worker free protocol: workers
// form a ring over one sharded heap with remote-free rings enabled;
// each round a worker allocates a batch of 64 B objects through its
// magazine, hands the batch to the next worker, and frees the batch it
// receives from the previous one — through ShardedHeap.Free (the
// freeing worker CAS-clears the owner shard's bitmap) or
// ShardedHeap.RemoteFree (one ring enqueue; the owner batches the
// clears at its next drain). The reported number is wall nanoseconds
// per malloc+free pair across all workers. The heap is identical
// between the two series, so within one process run the sync/remote
// ratio isolates the free-protocol cost.
func benchCrossFreePair(workers int, remote bool) (float64, error) {
	sh, err := core.NewSharded(workers, core.Options{
		HeapSize: workers * 12 << 20, Seed: 7, Concurrent: true, RemoteRing: true,
	})
	if err != nil {
		return 0, err
	}
	const (
		batch  = 64
		rounds = 2000
	)
	chans := make([]chan []heap.Ptr, workers)
	for i := range chans {
		chans[i] = make(chan []heap.Ptr, 2)
	}
	mags := make([]*core.Magazine, workers)
	for w := range mags {
		if mags[w], err = sh.NewMagazine(); err != nil {
			return 0, err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				ptrs := make([]heap.Ptr, batch)
				for i := range ptrs {
					p, err := mags[w].Malloc(64)
					if err != nil {
						errs[w] = err
						return
					}
					ptrs[i] = p
				}
				chans[(w+1)%workers] <- ptrs
				for _, p := range <-chans[w] {
					var err error
					if remote {
						err = sh.RemoteFree(p)
					} else {
						err = sh.Free(p)
					}
					if err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	for _, m := range mags {
		m.Close()
	}
	if err := sh.CheckInvariants(); err != nil {
		return 0, fmt.Errorf("cross-free bench (remote=%v, w=%d): %w", remote, workers, err)
	}
	return float64(wall.Nanoseconds()) / float64(workers*rounds*batch), nil
}

// benchDetectPair measures the steady-state free/malloc pair on a
// detection heap filled to the class-64 threshold with 48 B requests
// (16 bytes of audited slack per free). gen=false is the canary tier:
// thin pointers through Free/Malloc, slack audit plus canary re-arm per
// free, audit-on-reuse per malloc. gen=true runs the identical churn on
// a GenTags heap through the fat-pointer API, so each pair additionally
// pays the generation CAS on free, the tag bump on claim, and the
// side-array read that validates the fat pointer. Same geometry, seed,
// and request size, so the two numbers difference into the
// temporal-safety tax.
func benchDetectPair(gen bool) (float64, error) {
	dh, err := detect.New(core.Options{HeapSize: 48 << 20, Seed: 1, GenTags: gen}, detect.Options{})
	if err != nil {
		return 0, err
	}
	_, maxInUse := dh.ClassSlots(core.ClassFor(48))
	r := rng.NewSeeded(2)
	if gen {
		fps := make([]heap.FatPtr, maxInUse)
		for i := range fps {
			fp, err := dh.MallocFat(48)
			if err != nil {
				return 0, err
			}
			fps[i] = fp
		}
		return bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := r.Intn(len(fps))
				ok, err := dh.FreeFat(fps[j])
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.Fatal("live fat pointer rejected")
				}
				fp, err := dh.MallocFat(48)
				if err != nil {
					b.Fatal(err)
				}
				fps[j] = fp
			}
		}), nil
	}
	ptrs := make([]heap.Ptr, maxInUse)
	for i := range ptrs {
		p, err := dh.Malloc(48)
		if err != nil {
			return 0, err
		}
		ptrs[i] = p
	}
	return bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := r.Intn(len(ptrs))
			_ = dh.Free(ptrs[j])
			p, err := dh.Malloc(48)
			if err != nil {
				b.Fatal(err)
			}
			ptrs[j] = p
		}
	}), nil
}

// smokeRuns is how many interleaved runs each -smoke gate takes the
// median of: one run of every series in a gate per round, so host
// drift during the smoke lands on both sides of each ratio.
const smokeRuns = 5

// medians runs every bench once per round for smokeRuns rounds and
// returns each bench's median ns/op.
func medians(benches ...func() (float64, error)) []float64 {
	runs := make([][]float64, len(benches))
	for r := 0; r < smokeRuns; r++ {
		for i, f := range benches {
			ns, err := f()
			if err != nil {
				fatal(err)
			}
			runs[i] = append(runs[i], ns)
		}
	}
	out := make([]float64, len(benches))
	for i, ns := range runs {
		sort.Float64s(ns)
		out[i] = ns[len(ns)/2]
	}
	return out
}

// runSmoke is the CI perf gate: the lock-free engine's single-worker
// malloc pair must stay within 15% of the locked reference engine, and
// the magazine front end within 10% of the raw lock-free path, on the
// identical workload. Every gate compares medians of smokeRuns
// interleaved runs. It writes nothing, so the provenance guard on
// BENCH_vmem.json (multicore entries vs 1-CPU reruns) is never at risk
// from CI hosts.
func runSmoke() {
	pair := medians(
		func() (float64, error) { return benchMallocPairLocked(), nil },
		func() (float64, error) { return benchMallocPairLockFree(1) },
		func() (float64, error) { return benchMallocPairMagazine(1) },
	)
	locked, lockfree, magazine := pair[0], pair[1], pair[2]
	ratio := lockfree / locked
	magRatio := magazine / lockfree
	fmt.Printf("malloc_free_pair_64B (locked)   %8.2f ns/op\n", locked)
	fmt.Printf("lockfree_malloc_pair_w1         %8.2f ns/op\n", lockfree)
	fmt.Printf("magazine_malloc_pair_w1         %8.2f ns/op\n", magazine)
	fmt.Printf("ratio lockfree/locked           %8.3f (bound 1.15)\n", ratio)
	fmt.Printf("ratio magazine/lockfree         %8.3f (bound 1.10)\n", magRatio)
	if ratio > 1.15 {
		fatal(fmt.Errorf("lock-free malloc fast path is %.1f%% slower than the locked baseline (bound: 15%%)", (ratio-1)*100))
	}
	if magRatio > 1.10 {
		fatal(fmt.Errorf("magazine malloc fast path is %.1f%% slower than the raw lock-free path (bound: 10%%)", (magRatio-1)*100))
	}
	// Remote-free rings must not lose to synchronous cross-worker frees
	// on the contended 4-worker churn. The bound allows 5% to keep a
	// 1-CPU host (where contention wins shrink to batching wins) from
	// flaking the gate.
	cross := medians(
		func() (float64, error) { return benchCrossFreePair(4, false) },
		func() (float64, error) { return benchCrossFreePair(4, true) },
	)
	syncNs, remoteNs := cross[0], cross[1]
	crossRatio := remoteNs / syncNs
	fmt.Printf("syncfree_pair_w4                %8.2f ns/op\n", syncNs)
	fmt.Printf("remotefree_pair_w4              %8.2f ns/op\n", remoteNs)
	fmt.Printf("ratio remote/sync cross-free    %8.3f (bound 1.05)\n", crossRatio)
	if crossRatio > 1.05 {
		fatal(fmt.Errorf("remote-free cross-worker churn is %.1f%% slower than synchronous frees (bound: 5%%)", (crossRatio-1)*100))
	}
	// The telemetry plane must be free when disabled: the magazine hot
	// path with a nil trace ring — every instrumented site reduced to
	// one predictable branch — must stay within 2% of the plain
	// magazine number. On a ~20 ns op the bound is sub-nanosecond, so
	// only a real hot-path regression (an allocation, a call, an
	// atomic) can trip it.
	obsRuns := medians(
		func() (float64, error) { return benchMallocPairMagazine(1) },
		func() (float64, error) { return benchMallocPairObs(false) },
		func() (float64, error) { return benchMallocPairObs(true) },
	)
	magMed, obsOff, obsOn := obsRuns[0], obsRuns[1], obsRuns[2]
	obsRatio := obsOff / magMed
	fmt.Printf("obs_malloc_pair_off             %8.2f ns/op\n", obsOff)
	fmt.Printf("obs_malloc_pair_on              %8.2f ns/op\n", obsOn)
	fmt.Printf("ratio obs-off/magazine          %8.3f (bound 1.02)\n", obsRatio)
	if obsRatio > 1.02 {
		fatal(fmt.Errorf("disabled flight recorder costs %.1f%% on the magazine hot path (bound: 2%%)", (obsRatio-1)*100))
	}
	// Generation-tag tax, informational only (DESIGN.md §15): the
	// gen-checked fat-pointer pair against the canary-checked pair on
	// the identical 48 B threshold churn. Printed so CI logs track the
	// trend; deliberately ungated — the deterministic temporal tier is
	// priced, not bounded, and nothing is written.
	detectRuns := medians(
		func() (float64, error) { return benchDetectPair(false) },
		func() (float64, error) { return benchDetectPair(true) },
	)
	canaryNs, genNs := detectRuns[0], detectRuns[1]
	fmt.Printf("detect_overhead_malloc_pair_48B %8.2f ns/op\n", canaryNs)
	fmt.Printf("gentag_overhead_malloc_pair_48B %8.2f ns/op\n", genNs)
	fmt.Printf("ratio gen-checked/canary-checked %7.3f (informational, no bound)\n", genNs/canaryNs)
}

// readFile loads an existing baseline file; a missing file returns the
// os.IsNotExist error and an empty File.
func readFile(path string) (File, error) {
	f := File{PageSize: vmem.PageSize, Runs: map[string]Run{}}
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, err
	}
	return f, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "vmembench: %v\n", err)
	os.Exit(1)
}
