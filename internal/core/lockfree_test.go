package core

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diehard/internal/analysis"
	"diehard/internal/heap"
	"diehard/internal/rng"
	"diehard/internal/vmem"
)

// The lock-free malloc engine's test battery (DESIGN.md §10): the CAS
// probe loop must survive contention with its segregated metadata
// exactly consistent, place and fill objects byte-identically to the
// locked reference engine (lockedHeap) when one goroutine allocates,
// and keep the probe-count distribution the randomized-placement
// analysis predicts.

// popcountVsInUse asserts, per class, that the allocation bitmap's
// population equals the atomic occupancy counter — the explicit pairing
// invariant behind every CAS winner (one bit set <=> one reservation).
func popcountVsInUse(t *testing.T, h *Heap) {
	t.Helper()
	for c := range h.classes {
		cl := &h.classes[c]
		pop := 0
		for w := range cl.sub.bits {
			pop += bits.OnesCount64(atomic.LoadUint64(&cl.sub.bits[w]))
		}
		if inUse := int(atomic.LoadInt64(&cl.inUse)); pop != inUse {
			t.Errorf("class %d: bitmap popcount %d != atomic inUse %d", c, pop, inUse)
		}
	}
}

// TestLockFreeMallocStress hammers the CAS fast path: several goroutines
// per size class churn malloc/free (plus the §4.3 ignore paths) against
// one lock-free heap, and the metadata must come out exactly consistent.
// Runs under -race in CI.
func TestLockFreeMallocStress(t *testing.T) {
	const workersPerClass = 4
	const rounds = 500
	classSizes := []int{8, 64, 1024}

	h, err := New(Options{HeapSize: 48 << 20, Seed: 1337, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(classSizes)*workersPerClass)
	for ci, size := range classSizes {
		for w := 0; w < workersPerClass; w++ {
			wg.Add(1)
			go func(id, size, seed int) {
				defer wg.Done()
				r := rng.NewSeeded(uint64(seed)*0x9E3779B9 + 7)
				live := make([]heap.Ptr, 0, 48)
				for i := 0; i < rounds; i++ {
					p, err := h.Malloc(size)
					if err != nil {
						errs[id] = err
						return
					}
					live = append(live, p)
					if len(live) > 32 {
						victim := r.Intn(len(live))
						if err := h.Free(live[victim]); err != nil {
							errs[id] = err
							return
						}
						live[victim] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					if i%13 == 0 {
						// Racing double and misaligned frees must be
						// ignored without ever corrupting the bitmaps.
						_ = h.Free(p + 1)
					}
				}
				for _, p := range live {
					if err := h.Free(p); err != nil {
						errs[id] = err
						return
					}
				}
			}(ci*workersPerClass+w, size, ci*workersPerClass+w)
		}
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
	st := h.Stats()
	if st.Mallocs != uint64(len(classSizes)*workersPerClass*rounds) {
		t.Errorf("Mallocs = %d, want %d", st.Mallocs, len(classSizes)*workersPerClass*rounds)
	}
	if st.Frees != st.Mallocs {
		t.Errorf("Frees = %d != Mallocs %d after full teardown", st.Frees, st.Mallocs)
	}
}

// TestLockFreeDoubleFreeRace frees every pointer from two goroutines at
// once: exactly one CAS clear may win per pointer, so the ignored-free
// count and the occupancy must both come out exact.
func TestLockFreeDoubleFreeRace(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 5, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	ptrs := make([]heap.Ptr, n)
	for i := range ptrs {
		p, err := h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range ptrs {
				_ = h.Free(p)
			}
		}()
	}
	wg.Wait()
	st := h.Stats()
	if st.Frees != n {
		t.Errorf("Frees = %d, want exactly %d (one winner per racing pair)", st.Frees, n)
	}
	if st.IgnoredFrees != n {
		t.Errorf("IgnoredFrees = %d, want %d (one loser per racing pair)", st.IgnoredFrees, n)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
}

// TestLockFreeClaimWildFreeRace races unbatched mallocs against aligned
// wild frees on an untagged Concurrent heap near its 1/M threshold. A
// claimed bit is set from its CAS until the stream commit, so a wild
// free can clear it in between; if the commit then loses, the undo
// finds the bit gone and the claim shrinks, possibly to nothing, and
// malloc claims again (DESIGN.md §10). The bitmap population must still
// equal inUse exactly, and the ledger may skew by at most one per
// accepted wild free (CheckInvariantsSlack). The window is a few
// instructions wide: under -race a run reaches the emptied claim a few
// times, without it rarely. Runs under -race in CI.
func TestLockFreeClaimWildFreeRace(t *testing.T) {
	const (
		workers   = 4
		perWorker = 7 // 28 live objects against the class's 32-slot threshold
		rounds    = 20000
	)
	// One page per class: the 64 B class has 64 slots, so a wild free
	// lands on an in-flight claim often enough to matter.
	h, err := New(Options{HeapSize: NumClasses * vmem.PageSize, Seed: 41, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	c := ClassFor(64)
	slots, _ := h.ClassSlots(c)
	base := h.ClassBase(c)
	var (
		mallocers, freer sync.WaitGroup
		done             atomic.Bool
		wild             atomic.Uint64 // accepted wild frees
	)
	freer.Add(1)
	go func() {
		defer freer.Done()
		r := rng.NewSeeded(99)
		for !done.Load() {
			if ok, _ := h.free(heap.FatPtr{Addr: base + uint64(r.Intn(slots))*64}); ok {
				wild.Add(1)
			}
		}
	}()
	// Past rounds, the workers keep churning until some commit has lost,
	// up to a deadline: on a loaded host they can run one after another,
	// and only overlapping claims replay. With one P the claims seldom
	// overlap at all (none did in 10 s of churn on a 2-vCPU host), so
	// there the contention check is skipped.
	parallel := runtime.GOMAXPROCS(0) > 1
	deadline := time.Now().Add(10 * time.Second)
	contended := func() bool {
		return !parallel || atomic.LoadUint64(&h.stats.CASRetries) > 0 || time.Now().After(deadline)
	}
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		mallocers.Add(1)
		go func(w int) {
			defer mallocers.Done()
			r := rng.NewSeeded(uint64(w)*0x9E3779B9 + 1)
			live := make([]heap.Ptr, 0, perWorker+1)
			for i := 0; i < rounds || !contended(); i++ {
				p, err := h.Malloc(64)
				if errors.Is(err, heap.ErrOutOfMemory) {
					// At the threshold: make room from this worker's own
					// objects (a wild free may already have taken them).
					if len(live) > 0 {
						_ = h.Free(live[len(live)-1])
						live = live[:len(live)-1]
					}
					continue
				}
				if err != nil {
					errs[w] = err
					return
				}
				live = append(live, p)
				if len(live) > perWorker {
					v := r.Intn(len(live))
					_ = h.Free(live[v])
					live[v] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, p := range live {
				_ = h.Free(p)
			}
		}(w)
	}
	mallocers.Wait()
	done.Store(true)
	freer.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	popcountVsInUse(t, h)
	if err := h.CheckInvariantsSlack(wild.Load()); err != nil {
		t.Fatalf("after %d accepted wild frees: %v", wild.Load(), err)
	}
	if st := h.StatsSnapshot(); st.CASRetries == 0 && parallel {
		t.Errorf("CASRetries = 0: %d workers never contended one class", workers)
	}
}

// TestLockFreeMatchesLockedLayout is the engine-differencing regression:
// with the same seed and one goroutine, the lock-free engine must place
// every object at exactly the address the locked reference engine does,
// and hand it out holding the same bytes — both consume the same
// per-class draw stream, for probes and, on RandomFill heaps, for the
// object fill — across mixed sizes, frees and large objects. The two
// heaps must end with equal stats and snapshots.
//
// The reference shares fillClassRandom with the lock-free engine, so the
// RandomFill run also hashes the bytes each malloc hands out against
// fillHash, recorded while RandomFill heaps still ran on the locked
// engine alone: a change to the fill itself moves both heaps at once.
func TestLockFreeMatchesLockedLayout(t *testing.T) {
	const fillHash = 0x4ee349ddffcdc0b3
	sizes := []int{8, 24, 64, 300, 2048, MaxObjectSize + 100}
	got, want := make([]byte, MaxObjectSize+100), make([]byte, MaxObjectSize+100)
	for _, fill := range []bool{false, true} {
		opts := Options{HeapSize: 16 << 20, Seed: 0xD1FF, RandomFill: fill}
		lf, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		locked := newLockedHeap(ref)
		sum := fnv.New64a()
		r := rng.NewSeeded(99)
		live := make([]heap.Ptr, 0, 512)
		for i := 0; i < 3000; i++ {
			size := sizes[r.Intn(len(sizes))]
			p, err := lf.Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			q, err := locked.Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			if p != q {
				t.Fatalf("fill=%v alloc %d: lock-free placed %#x, locked reference placed %#x",
					fill, i, p, q)
			}
			n, _ := lf.SizeOf(p)
			if err := lf.Mem().ReadBytes(p, got[:n]); err != nil {
				t.Fatal(err)
			}
			if err := ref.Mem().ReadBytes(q, want[:n]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:n], want[:n]) {
				t.Fatalf("fill=%v alloc %d at %#x: contents differ from the locked reference",
					fill, i, p)
			}
			sum.Write(got[:n])
			for _, m := range []*vmem.Space{lf.Mem(), ref.Mem()} {
				if err := m.Store64(p, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live, p)
			if len(live) > 400 {
				victim := r.Intn(len(live))
				if err := lf.Free(live[victim]); err != nil {
					t.Fatal(err)
				}
				if err := locked.Free(live[victim]); err != nil {
					t.Fatal(err)
				}
				live[victim] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if i%13 == 0 {
				// A misaligned free: both engines must ignore it.
				if err := lf.Free(p + 1); err != nil {
					t.Fatal(err)
				}
				if err := locked.Free(p + 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if fill && sum.Sum64() != fillHash {
			t.Errorf("fill bytes hash to %#x, recorded %#x", sum.Sum64(), uint64(fillHash))
		}
		if a, b := lf.StatsSnapshot(), ref.StatsSnapshot(); a != b {
			t.Errorf("fill=%v: stats differ\nlock-free %+v\nlocked    %+v", fill, a, b)
		}
		if div := DiffSnapshots(snapshot(t, lf), snapshot(t, ref)); len(div) != 0 {
			t.Errorf("fill=%v: snapshots diverge: %v", fill, div)
		}
		for _, h := range []*Heap{lf, ref} {
			if err := h.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func snapshot(t *testing.T, h *Heap) []ObjectRecord {
	t.Helper()
	snap, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestLockFreeSnapshotMatchesLocked runs the same deterministic program
// on the lock-free engine and the locked reference and diffs the full
// heap snapshots: not just addresses but live contents must be
// indistinguishable.
func TestLockFreeSnapshotMatchesLocked(t *testing.T) {
	run := func(a allocator, h *Heap) []ObjectRecord {
		live := make([]heap.Ptr, 0, 128)
		for i := 0; i < 600; i++ {
			p, err := a.Malloc(16 + i%200)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Mem().Store64(p, uint64(i)); err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
			if i%3 == 0 && len(live) > 1 {
				if err := a.Free(live[0]); err != nil {
					t.Fatal(err)
				}
				live = live[1:]
			}
		}
		return snapshot(t, h)
	}
	opts := Options{HeapSize: 12 << 20, Seed: 0xFEED}
	lf, ref := testHeap(t, opts), testHeap(t, opts)
	if div := DiffSnapshots(run(lf, lf), run(newLockedHeap(ref), ref)); len(div) != 0 {
		t.Fatalf("lock-free and locked snapshots diverge: %v", div)
	}
}

// TestLockFreeProbeDistribution brackets the CAS probe loop's empirical
// mean probe count against the geometric expectation 1/(1 - fullness)
// (analysis.ExpectedProbes) at half-full and five-sixths-full heaps: the
// statistical witness that the lock-free rewrite preserved uniform
// randomized placement.
func TestLockFreeProbeDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical reproduction; skipped in -short mode")
	}
	const pairs = 20000
	for _, m := range []float64{2, 1.2} {
		h, err := New(Options{HeapSize: 8 << 20, M: m, Seed: 0xAB5})
		if err != nil {
			t.Fatal(err)
		}
		c := ClassFor(64)
		total, maxInUse := h.ClassSlots(c)
		ptrs := make([]heap.Ptr, maxInUse)
		for i := range ptrs {
			p, err := h.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			ptrs[i] = p
		}
		r := rng.NewSeeded(7)
		before := h.Stats().Probes
		for i := 0; i < pairs; i++ {
			j := r.Intn(len(ptrs))
			if err := h.Free(ptrs[j]); err != nil {
				t.Fatal(err)
			}
			p, err := h.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			ptrs[j] = p
		}
		mean := float64(h.Stats().Probes-before) / pairs
		// Each steady-state malloc probes with maxInUse-1 slots occupied.
		fullness := float64(maxInUse-1) / float64(total)
		want := analysis.ExpectedProbes(fullness)
		if math.Abs(mean-want)/want > 0.10 {
			t.Errorf("M=%v: mean probes %.3f, geometric expectation %.3f (fullness %.3f)",
				m, mean, want, fullness)
		}
	}
}

// TestShardedStealRouting pins the occupancy-aware router: with shard
// 0's size class driven to its 1/M threshold, routed mallocs must steal
// from the emptier shards instead of failing — the exact situation where
// round-robin routing trips one shard's threshold early (it would hand
// every len(shards)-th request to the full shard and get ErrOutOfMemory).
func TestShardedStealRouting(t *testing.T) {
	const shards = 4
	sh, err := NewSharded(shards, Options{HeapSize: shards << 20, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	c := ClassFor(64)
	_, maxInUse := sh.Shard(0).ClassSlots(c)
	for i := 0; i < maxInUse; i++ {
		if _, err := sh.Shard(0).Malloc(64); err != nil {
			t.Fatalf("filling shard 0: %v", err)
		}
	}
	// Shard 0 is at threshold: every routed malloc must now succeed by
	// stealing a slot elsewhere.
	for i := 0; i < 3*maxInUse/2; i++ {
		p, err := sh.Malloc(64)
		if err != nil {
			t.Fatalf("routed malloc %d failed with shard 0 full: %v", i, err)
		}
		if sh.Shard(0).InHeap(p) {
			t.Fatalf("routed malloc %d landed in the full shard", i)
		}
	}
	if use := sh.Shard(0).ClassInUse(c); use != maxInUse {
		t.Errorf("shard 0 occupancy changed to %d during steals", use)
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStealExhaustion drives the router to genuine exhaustion:
// every shard's class capacity must be usable through sh.Malloc (the
// refused-shard retry pass), and only when all shards are at their 1/M
// thresholds may the router return out-of-memory.
func TestShardedStealExhaustion(t *testing.T) {
	const shards = 3
	sh, err := NewSharded(shards, Options{HeapSize: shards << 20, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	c := ClassFor(64)
	_, maxInUse := sh.Shard(0).ClassSlots(c)
	for i := 0; i < shards*maxInUse; i++ {
		if _, err := sh.Malloc(64); err != nil {
			t.Fatalf("routed malloc %d/%d failed before exhaustion: %v", i, shards*maxInUse, err)
		}
	}
	if _, err := sh.Malloc(64); !errors.Is(err, heap.ErrOutOfMemory) {
		t.Fatalf("past exhaustion: err = %v, want ErrOutOfMemory", err)
	}
	for i := 0; i < shards; i++ {
		if use := sh.Shard(i).ClassInUse(c); use != maxInUse {
			t.Errorf("shard %d occupancy %d != threshold %d at exhaustion", i, use, maxInUse)
		}
	}
}

// TestShardedStealBalancesSkew drives all mallocs through the router and
// checks the per-shard occupancy spread stays tight: emptiest-shard
// stealing is self-balancing, landing each routing decision on a
// least-loaded shard. With routing hysteresis a decision is reused for
// up to routeWindow requests before occupancy is re-read, so the
// max-min spread is bounded by the window, not by one slot.
func TestShardedStealBalancesSkew(t *testing.T) {
	const shards = 4
	sh, err := NewSharded(shards, Options{HeapSize: shards * 12 << 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := ClassFor(64)
	for i := 0; i < 4000; i++ {
		if _, err := sh.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	minUse, maxUse := int(^uint(0)>>1), 0
	for i := 0; i < shards; i++ {
		use := sh.Shard(i).ClassInUse(c)
		if use < minUse {
			minUse = use
		}
		if use > maxUse {
			maxUse = use
		}
	}
	if maxUse-minUse > routeWindow {
		t.Errorf("sequential steal routing spread %d..%d; want within routeWindow (%d) slots",
			minUse, maxUse, routeWindow)
	}
}

// TestShardedRoutingHysteresis pins the hysteresis contract itself: one
// routing decision sticks for exactly routeWindow consecutive
// same-class mallocs (they all land on the chosen shard), and the next
// request re-reads occupancy and routes to the emptiest shard.
func TestShardedRoutingHysteresis(t *testing.T) {
	const shards = 4
	sh, err := NewSharded(shards, Options{HeapSize: shards * 12 << 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := ClassFor(64)
	occupancy := func() []int {
		use := make([]int, shards)
		for i := range use {
			use[i] = sh.Shard(i).ClassInUse(c)
		}
		return use
	}
	before := occupancy()
	for i := 0; i < routeWindow; i++ {
		if _, err := sh.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	after := occupancy()
	changed := -1
	for i := range after {
		if after[i] != before[i] {
			if changed >= 0 {
				t.Fatalf("window of %d mallocs split across shards %d and %d; want one sticky shard",
					routeWindow, changed, i)
			}
			changed = i
			if after[i]-before[i] != routeWindow {
				t.Fatalf("sticky shard %d took %d mallocs; want the full window %d",
					i, after[i]-before[i], routeWindow)
			}
		}
	}
	if changed != 0 {
		t.Fatalf("first window landed on shard %d; want shard 0 (emptiest, ties to lowest index)", changed)
	}
	// The window is spent: the next malloc re-routes to an emptiest
	// shard, which shard 0 (now routeWindow ahead) cannot be.
	if _, err := sh.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if use := sh.Shard(0).ClassInUse(c); use != after[0] {
		t.Errorf("expired window still routed to shard 0 (occupancy %d -> %d); want re-route to an emptier shard",
			after[0], use)
	}
}

// TestShardedRoutingDropsThresholdClass pins the mid-window reroute on
// class fullness: when the sticky shard's routed *class* reaches its
// 1/M threshold, the very next routed malloc must abandon the window
// and land elsewhere — before, only an observed out-of-memory dropped
// the window, which a shard only reports by burning a failed malloc.
func TestShardedRoutingDropsThresholdClass(t *testing.T) {
	const shards = 2
	c := ClassFor(64)
	t.Run("nonadaptive-no-failed-malloc", func(t *testing.T) {
		sh, err := NewSharded(shards, Options{HeapSize: shards * 6 << 20, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		// Establish a sticky window on shard 0 (emptiest, ties low).
		if _, err := sh.Malloc(64); err != nil {
			t.Fatal(err)
		}
		if use := sh.Shard(0).ClassInUse(c); use != 1 {
			t.Fatalf("window opener landed off shard 0 (occupancy %d)", use)
		}
		// Fill shard 0's class to exactly its threshold behind the
		// router's back, mid-window.
		_, maxInUse := sh.Shard(0).ClassSlots(c)
		for sh.Shard(0).ClassInUse(c) < maxInUse {
			if _, err := sh.Shard(0).Malloc(64); err != nil {
				t.Fatalf("filling shard 0: %v", err)
			}
		}
		// The window has routeWindow-1 requests left, but the routed
		// class is now full: the next routed malloc must reroute.
		p, err := sh.Malloc(64)
		if err != nil {
			t.Fatalf("routed malloc at sticky-shard threshold: %v", err)
		}
		if sh.Shard(0).InHeap(p) {
			t.Fatal("routed malloc landed on the full sticky shard")
		}
		if failed := sh.Stats().FailedMallocs; failed != 0 {
			t.Errorf("reroute burned %d failed mallocs; want 0", failed)
		}
		if err := sh.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
