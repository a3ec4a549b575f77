package core

import (
	"math"
	"sync"
	"testing"

	"diehard/internal/analysis"
	"diehard/internal/heap"
	"diehard/internal/rng"
)

// The magazine layer's test battery (DESIGN.md §11): batched refills
// must consume exactly the prefix of the unbatched placement sequence,
// concurrent magazines must drain to exactly consistent metadata,
// double frees must find exactly one winner no matter which magazine
// flushes them, and refill probe counts must match the batched
// expectation the analysis package derives.

// TestMagazinePrefixPlacement is the prefix-placement proof: a magazine
// serving k sequential mallocs hands out exactly the k addresses the
// unbatched engine hands out, in order, for every size class — the
// refill's batched draw is a contiguous prefix of the per-class MWC
// sequence, and claims made as drawn see the identical bitmap states.
// This is the property that keeps the golden campaign recordings
// meaningful with magazines in the stack. On a generation-tagged heap
// MallocFat through the magazine also returns the unbatched tags.
func TestMagazinePrefixPlacement(t *testing.T) {
	const seed = 99
	const perClass = 200 // spans several refills: 8+16+32+64+64+...
	sizes := []int{8, 17, 100, 1000, MaxObjectSize}

	for _, tagged := range []bool{false, true} {
		name := "plain"
		if tagged {
			name = "gentag"
		}
		t.Run(name, func(t *testing.T) {
			// 96 MB: the 16 KB class needs 200 live slots below its 1/M
			// threshold (200 * 16 KB * 2 * NumClasses = 75 MB minimum).
			opts := Options{HeapSize: 96 << 20, Seed: seed, GenTags: tagged}
			plain, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			magged, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			m, err := magged.NewMagazine()
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range sizes {
				for i := 0; i < perClass; i++ {
					var want, got heap.FatPtr
					var err1, err2 error
					if tagged {
						want, err1 = plain.MallocFat(size)
						got, err2 = m.MallocFat(size)
					} else {
						want.Addr, err1 = plain.Malloc(size)
						got.Addr, err2 = m.Malloc(size)
					}
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if got != want {
						t.Fatalf("size %d malloc %d: magazine issued %+v, unbatched engine %+v",
							size, i, got, want)
					}
				}
			}
			// Frees through the magazine release the same slots the
			// unbatched engine releases, so continued allocation stays in
			// lockstep (magazine frees batch their bitmap clears, but the
			// stream is untouched by frees in both engines).
			m.Drain()
			if err := magged.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMagazineDrainExactness churns a workload through a magazine, then
// drains: every counter, the bitmap population, and FreeSlots walks
// must be exact — served mallocs published, buffered frees flushed,
// unconsumed claims returned.
func TestMagazineDrainExactness(t *testing.T) {
	h, err := New(Options{HeapSize: 48 << 20, Seed: 4242})
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewSeeded(7)
	live := make([]heap.Ptr, 0, 512)
	for i := 0; i < 4000; i++ {
		p, err := m.Malloc(8 << (i % 3))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
		if len(live) > 256 {
			victim := r.Intn(len(live))
			if err := m.Free(live[victim]); err != nil {
				t.Fatal(err)
			}
			live[victim] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	m.Drain()
	popcountVsInUse(t, h)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Mallocs != 4000 {
		t.Errorf("drained Mallocs = %d, want 4000", st.Mallocs)
	}
	if st.Frees != 4000-uint64(len(live)) {
		t.Errorf("drained Frees = %d, want %d", st.Frees, 4000-len(live))
	}
	if st.LiveObjects != uint64(len(live)) {
		t.Errorf("drained LiveObjects = %d, want %d", st.LiveObjects, len(live))
	}
	// The magazine stays usable after a drain.
	if _, err := m.Malloc(64); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMagazineRaceBattery is the N-goroutine magazine race test: one
// magazine per goroutine over one concurrent heap, churning overlapping
// size classes (so refills race refills, flushes race flushes, and the
// probe streams are genuinely contended), ending in drain +
// CheckInvariants + bitmap-popcount == inUse. Runs under -race in CI.
func TestMagazineRaceBattery(t *testing.T) {
	const workers = 8
	const rounds = 400

	h, err := New(Options{HeapSize: 48 << 20, Seed: 31337, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	mags := make([]*Magazine, workers)
	for w := 0; w < workers; w++ {
		if mags[w], err = h.NewMagazine(); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := mags[id]
			r := rng.NewSeeded(uint64(id)*0x9E3779B9 + 11)
			live := make([]heap.Ptr, 0, 64)
			for i := 0; i < rounds; i++ {
				size := 8 << (r.Intn(3)) // everyone shares classes 0..2
				p, err := m.Malloc(size)
				if err != nil {
					errs[id] = err
					return
				}
				live = append(live, p)
				if len(live) > 48 {
					victim := r.Intn(len(live))
					if err := m.Free(live[victim]); err != nil {
						errs[id] = err
						return
					}
					live[victim] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, p := range live {
				if err := m.Free(p); err != nil {
					errs[id] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	// CheckInvariants drains every registered magazine first (the drain
	// barrier), so popcount == inUse must hold afterwards with nothing
	// still parked in a magazine.
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
	st := h.Stats()
	if st.Mallocs != workers*rounds {
		t.Errorf("Mallocs = %d, want %d", st.Mallocs, workers*rounds)
	}
	if st.Frees != workers*rounds {
		t.Errorf("Frees = %d, want %d (every worker freed everything)", st.Frees, workers*rounds)
	}
	if st.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d after full teardown, want 0", st.LiveObjects)
	}
	for _, m := range mags {
		m.Close()
	}
}

// TestMagazineShardedRace drives magazines over a ShardedHeap: refills
// route by occupancy across shards, frees route home by page index, and
// the sharded drain barrier must leave every shard exactly consistent.
func TestMagazineShardedRace(t *testing.T) {
	const workers = 6
	const rounds = 300

	sh, err := NewSharded(3, Options{HeapSize: 48 << 20, Seed: 2718})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		m, err := sh.NewMagazine()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int, m *Magazine) {
			defer wg.Done()
			defer m.Close()
			r := rng.NewSeeded(uint64(id)*0x6C078965 + 3)
			live := make([]heap.Ptr, 0, 64)
			for i := 0; i < rounds; i++ {
				p, err := m.Malloc(8 << (r.Intn(3)))
				if err != nil {
					errs[id] = err
					return
				}
				live = append(live, p)
				if len(live) > 40 {
					victim := r.Intn(len(live))
					if err := m.Free(live[victim]); err != nil {
						errs[id] = err
						return
					}
					live[victim] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, p := range live {
				if err := m.Free(p); err != nil {
					errs[id] = err
					return
				}
			}
		}(w, m)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.Mallocs != workers*rounds {
		t.Errorf("Mallocs = %d, want %d", st.Mallocs, workers*rounds)
	}
	if st.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d after full teardown, want 0", st.LiveObjects)
	}
}

// TestMagazineDoubleFreeOneWinner aims racing double frees of the same
// pointers through different magazines: across every flush, exactly one
// free per pointer may win (counted in Frees) and every other must be
// detected and ignored (IgnoredFrees) — §4.3 semantics preserved
// through the batching layer.
func TestMagazineDoubleFreeOneWinner(t *testing.T) {
	const dups = 4 // each pointer freed through this many magazines
	const objects = 300

	h, err := New(Options{HeapSize: 48 << 20, Seed: 5150, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	feeder, err := h.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	ptrs := make([]heap.Ptr, objects)
	for i := range ptrs {
		if ptrs[i], err = feeder.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	feeder.Drain()
	var wg sync.WaitGroup
	errs := make([]error, dups)
	for d := 0; d < dups; d++ {
		m, err := h.NewMagazine()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int, m *Magazine) {
			defer wg.Done()
			defer m.Close()
			for _, p := range ptrs {
				if err := m.Free(p); err != nil {
					errs[id] = err
					return
				}
			}
		}(d, m)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("freer %d: %v", id, err)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Frees != objects {
		t.Errorf("Frees = %d, want exactly %d (one winner per pointer)", st.Frees, objects)
	}
	if want := uint64(objects * (dups - 1)); st.IgnoredFrees != want {
		t.Errorf("IgnoredFrees = %d, want %d (every duplicate detected)", st.IgnoredFrees, want)
	}
	if st.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d, want 0", st.LiveObjects)
	}
	popcountVsInUse(t, h)
}

// TestMagazineInvalidFrees routes the §4.3 ignore paths through a
// magazine: null, foreign, and misaligned-interior frees must all be
// ignored without perturbing magazine or heap state.
func TestMagazineInvalidFrees(t *testing.T) {
	h, err := New(Options{HeapSize: 48 << 20, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(heap.Null); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p + 8); err != nil { // misaligned interior pointer
		t.Fatal(err)
	}
	if err := m.Free(0xDEADBEEF00); err != nil { // foreign
		t.Fatal(err)
	}
	m.Drain()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.IgnoredFrees != 2 {
		t.Errorf("IgnoredFrees = %d, want 2 (misaligned + foreign; free(NULL) is a no-op)", st.IgnoredFrees)
	}
	if st.LiveObjects != 1 {
		t.Errorf("LiveObjects = %d, want 1", st.LiveObjects)
	}
}

// TestMagazineEngineGates pins the construction gates: magazines refuse
// RandomFill heaps (a batched refill draws its probes ahead of the
// fills) and hooked (detection) heaps.
func TestMagazineEngineGates(t *testing.T) {
	filled, err := New(Options{HeapSize: 48 << 20, Seed: 1, RandomFill: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := filled.NewMagazine(); err == nil {
		t.Error("NewMagazine on a RandomFill heap succeeded; want error")
	}
	hooked, err := New(Options{HeapSize: 48 << 20, Seed: 1, OnAlloc: func(heap.Ptr, int, int) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hooked.NewMagazine(); err == nil {
		t.Error("NewMagazine on a hooked heap succeeded; want error")
	}
}

// TestMagazineLargeObjects confirms large objects pass through the
// magazine unbatched with their guarded-mapping lifecycle intact.
func TestMagazineLargeObjects(t *testing.T) {
	h, err := New(Options{HeapSize: 48 << 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Malloc(MaxObjectSize + 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.LargeObjects() != 1 {
		t.Fatalf("LargeObjects = %d, want 1", h.LargeObjects())
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if h.LargeObjects() != 0 {
		t.Fatalf("LargeObjects = %d after free, want 0", h.LargeObjects())
	}
}

// TestMagazineProbeDistribution brackets empirical refill probe counts
// against analysis.ExpectedBatchProbes at 1/2-full (M = 2) and 5/6-full
// (M = 1.2) steady states: randomized placement's probe-cost model
// survives batching at every intermediate fullness the batch traverses.
func TestMagazineProbeDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical bracket needs full refill volume")
	}
	for _, tc := range []struct {
		name string
		m    float64
	}{
		{"half-full-M2", 2.0},
		{"five-sixths-full-M1.2", 1.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := New(Options{HeapSize: 12 << 20, Seed: 9090, M: tc.m})
			if err != nil {
				t.Fatal(err)
			}
			m, err := h.NewMagazine()
			if err != nil {
				t.Fatal(err)
			}
			const c = 3 // 64-byte class
			cm := &m.classes[c]
			cm.cap = MagazineMaxCap // skip warm-up growth: every refill is full-size
			total, maxInUse := h.ClassSlots(c)
			// Fill to the threshold minus exactly one magazine batch
			// through the unbatched path, so every steady-state refill
			// reserves a full batch starting at live = maxInUse - cap.
			for i := 0; i < maxInUse-MagazineMaxCap; i++ {
				if _, err := h.Malloc(64); err != nil {
					t.Fatal(err)
				}
			}
			// Steady churn: each round consumes one whole magazine (cap
			// mallocs → one refill at the target fullness) and frees it
			// back. Probes are read around the refill boundary.
			const rounds = 400
			live := make([]heap.Ptr, 0, MagazineMaxCap)
			var refillProbes uint64
			for r := 0; r < rounds; r++ {
				before := h.Stats().Probes
				for i := 0; i < MagazineMaxCap; i++ {
					p, err := m.Malloc(64)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, p)
				}
				refillProbes += h.Stats().Probes - before
				for _, p := range live {
					if err := m.Free(p); err != nil {
						t.Fatal(err)
					}
				}
				live = live[:0]
			}
			// Buffered frees keep bits set until the flush, so refills
			// probe against up to cap phantom-live slots; bracket against
			// the worst case (live = maxInUse - cap claimed + cap
			// still-buffered) and best case with ±10% slack.
			meanGot := float64(refillProbes) / rounds
			low := analysis.ExpectedBatchProbes(total, maxInUse-MagazineMaxCap, MagazineMaxCap)
			high := analysis.ExpectedBatchProbes(total, maxInUse, MagazineMaxCap)
			if hi := high * 1.10; meanGot > hi {
				t.Errorf("mean refill probes %.2f above bracket [%.2f, %.2f] (+10%%)",
					meanGot, low, hi)
			}
			if lo := low * 0.90; meanGot < lo {
				t.Errorf("mean refill probes %.2f below bracket [%.2f, %.2f] (-10%%)",
					meanGot, lo, high)
			}
			// Sanity: the bracket itself must contain the single-malloc
			// expectation scaled by the batch, or the test is vacuous.
			single := analysis.ExpectedProbes(float64(maxInUse-MagazineMaxCap)/float64(total)) *
				MagazineMaxCap
			if !(single >= low*0.5 && single <= high*2) {
				t.Fatalf("bracket [%v, %v] implausible vs scaled single expectation %v",
					low, high, single)
			}
			if math.IsNaN(meanGot) {
				t.Fatal("no refills observed")
			}
		})
	}
}

// BenchmarkMagazinePair is ROADMAP item 2's magazine_gentag_pair
// series: one worker's steady-state free+malloc pair of 64 B objects
// through a magazine, with the class held just below its 1/M threshold
// (the probe-heavy regime), on a concurrent heap as the serve soak runs
// it. plain uses Free/Malloc on an untagged heap; gentag uses
// FreeFat/MallocFat on a tagged one, so each pair pays the claim's tag
// bump, the pop's tag check, and the flush's generation CAS.
func BenchmarkMagazinePair(b *testing.B) {
	for _, tagged := range []bool{false, true} {
		name := "plain"
		if tagged {
			name = "gentag"
		}
		b.Run(name, func(b *testing.B) {
			h, err := New(Options{HeapSize: 48 << 20, Seed: 1, Concurrent: true, GenTags: tagged})
			if err != nil {
				b.Fatal(err)
			}
			m, err := h.NewMagazine()
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			pair := func(old heap.FatPtr) (heap.FatPtr, error) {
				if tagged {
					if _, err := m.FreeFat(old); err != nil {
						return heap.FatPtr{}, err
					}
					return m.MallocFat(64)
				}
				if err := m.Free(old.Addr); err != nil {
					return heap.FatPtr{}, err
				}
				p, err := m.Malloc(64)
				return heap.FatPtr{Addr: p}, err
			}
			_, maxInUse := h.ClassSlots(ClassFor(64))
			live := make([]heap.FatPtr, maxInUse-2*MagazineMaxCap)
			for i := range live {
				if live[i], err = pair(heap.FatPtr{}); err != nil {
					b.Fatal(err)
				}
			}
			r := rng.NewSeeded(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := r.Intn(len(live))
				if live[j], err = pair(live[j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
