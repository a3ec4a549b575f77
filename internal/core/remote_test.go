package core

// The remote-free ring battery (DESIGN.md §12): the ring must hand
// frees between workers without losing, duplicating, or blocking;
// queued entries must keep every invariant intact (bit set + occupancy
// held until the drain applies them); and §4.3's exactly-one-winner
// double-free semantics must survive any interleaving of rings,
// magazines, and synchronous frees. TestRemote* runs repeatedly under
// the race detector in CI.

import (
	"sync"
	"sync/atomic"
	"testing"

	"diehard/internal/heap"
	"diehard/internal/rng"
)

// TestRemoteRingUnit exercises the bare ring: FIFO order, the full ring
// refusing (not blocking, not overwriting), recycling after drain, and
// the unlocked empty check.
func TestRemoteRingUnit(t *testing.T) {
	r := newFreeRing(8)
	if !r.empty() {
		t.Fatal("fresh ring not empty")
	}
	for i := uint64(0); i < 8; i++ {
		if !r.enqueue(0x1000+i, 0) {
			t.Fatalf("enqueue %d refused below capacity", i)
		}
	}
	if r.enqueue(0xdead, 0) {
		t.Fatal("enqueue accepted into a full ring")
	}
	if r.empty() {
		t.Fatal("full ring reported empty")
	}
	for i := uint64(0); i < 8; i++ {
		addr, _, ok := r.dequeue()
		if !ok {
			t.Fatalf("dequeue %d found empty ring", i)
		}
		if addr != 0x1000+i {
			t.Fatalf("dequeue %d = %#x; want FIFO %#x", i, addr, 0x1000+i)
		}
	}
	if _, _, ok := r.dequeue(); ok {
		t.Fatal("dequeue from drained ring succeeded")
	}
	// A second lap reuses recycled cells; generation tags ride along.
	for i := uint64(0); i < 8; i++ {
		if !r.enqueue(0x2000+i, 2*i+1) {
			t.Fatalf("lap-2 enqueue %d refused", i)
		}
	}
	if addr, gen, ok := r.dequeue(); !ok || addr != 0x2000 || gen != 1 {
		t.Fatalf("lap-2 dequeue = %#x, gen %d, %v; want %#x, 1, true", addr, gen, ok, 0x2000)
	}
}

// TestRemoteFreeDeferral pins the deferral contract: a RemoteFree
// leaves the slot bitmap-live and its occupancy reserved (so invariants
// hold with entries in flight and FreeSlots does not resurface the
// slot), and the CheckInvariants barrier drains the ring, restoring
// exact counters.
func TestRemoteFreeDeferral(t *testing.T) {
	h, err := New(Options{HeapSize: 48 << 20, Seed: 5, Concurrent: true, RemoteRing: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	ptrs := make([]heap.Ptr, n)
	for i := range ptrs {
		if ptrs[i], err = h.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range ptrs {
		if err := h.RemoteFree(p); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.Frees != 0 {
		t.Fatalf("Frees = %d before any drain; want 0 (deferred)", st.Frees)
	}
	c := ClassFor(64)
	if use := h.ClassInUse(c); use != n {
		t.Fatalf("occupancy %d with frees in flight; want %d (still reserved)", use, n)
	}
	popcountVsInUse(t, h) // bits still set, counter still high: consistent
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.Frees != n || st.LiveObjects != 0 {
		t.Fatalf("after barrier: Frees = %d, LiveObjects = %d; want %d, 0", st.Frees, st.LiveObjects, n)
	}
	if st.RemoteFrees != n {
		t.Fatalf("RemoteFrees = %d; want %d", st.RemoteFrees, n)
	}
	if st.RemoteDrains == 0 {
		t.Fatal("RemoteDrains = 0 after a non-empty drain")
	}
	if use := h.ClassInUse(c); use != 0 {
		t.Fatalf("occupancy %d after drain; want 0", use)
	}
}

// TestRemoteFreeDoubleFreeRace races many frees of the same pointers
// through every route at once — RemoteFree and synchronous Free — and
// requires §4.3's exactly-one-winner outcome: per object, one counted
// free, the rest detected and ignored, no matter which path the winner
// took.
func TestRemoteFreeDoubleFreeRace(t *testing.T) {
	const objects = 64
	const racers = 6
	h, err := New(Options{HeapSize: 48 << 20, Seed: 11, Concurrent: true, RemoteRing: true})
	if err != nil {
		t.Fatal(err)
	}
	ptrs := make([]heap.Ptr, objects)
	for i := range ptrs {
		if ptrs[i], err = h.Malloc(256); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < racers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, p := range ptrs {
				if w%2 == 0 {
					_ = h.RemoteFree(p)
				} else {
					_ = h.Free(p)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Frees != objects {
		t.Errorf("Frees = %d; want exactly one winner per object (%d)", st.Frees, objects)
	}
	if st.Frees+st.IgnoredFrees != objects*racers {
		t.Errorf("Frees + IgnoredFrees = %d + %d; want every attempt accounted (%d)",
			st.Frees, st.IgnoredFrees, objects*racers)
	}
	if st.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d; want 0", st.LiveObjects)
	}
	popcountVsInUse(t, h)
}

// TestRemoteFreeFullRingFallsBack overflows the ring with no consumer
// running: the overflow must be applied synchronously — never blocked,
// never lost — and the final accounting must cover every free.
func TestRemoteFreeFullRingFallsBack(t *testing.T) {
	h, err := New(Options{HeapSize: 96 << 20, Seed: 3, Concurrent: true, RemoteRing: true})
	if err != nil {
		t.Fatal(err)
	}
	n := remoteRingSize + 100
	ptrs := make([]heap.Ptr, n)
	for i := range ptrs {
		if ptrs[i], err = h.Malloc(16); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range ptrs {
		if err := h.RemoteFree(p); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.Frees != 100 {
		t.Errorf("synchronous fallback applied %d frees; want the 100 overflow", st.Frees)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.Frees != uint64(n) || st.LiveObjects != 0 {
		t.Errorf("after barrier: Frees = %d, LiveObjects = %d; want %d, 0", st.Frees, st.LiveObjects, n)
	}
	if st.RemoteFrees != remoteRingSize {
		t.Errorf("RemoteFrees = %d; want ring capacity %d", st.RemoteFrees, remoteRingSize)
	}
}

// TestRemoteFreeThresholdDrain pins the malloc-miss drain: a class at
// its 1/M threshold whose room is sitting in the ring must serve the
// next malloc by draining, not fail it — on both routes into the one
// reservation, an unbatched malloc's one-slot claim and a magazine
// refill.
func TestRemoteFreeThresholdDrain(t *testing.T) {
	for _, batched := range []bool{false, true} {
		name := "unbatched_malloc"
		if batched {
			name = "magazine_refill"
		}
		t.Run(name, func(t *testing.T) {
			h, err := New(Options{HeapSize: 12 << 20, Seed: 23, Concurrent: true, RemoteRing: true})
			if err != nil {
				t.Fatal(err)
			}
			c := ClassFor(64)
			_, maxInUse := h.ClassSlots(c)
			ptrs := make([]heap.Ptr, maxInUse)
			for i := range ptrs {
				if ptrs[i], err = h.Malloc(64); err != nil {
					t.Fatal(err)
				}
			}
			// The class is at threshold and all its room is queued.
			for _, p := range ptrs[:16] {
				if err := h.RemoteFree(p); err != nil {
					t.Fatal(err)
				}
			}
			if batched {
				mag, err := h.NewMagazine()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := mag.Malloc(64); err != nil {
					t.Fatalf("magazine malloc at threshold with queued room: %v", err)
				}
				mag.Close()
			} else {
				if _, err := h.Malloc(64); err != nil {
					t.Fatalf("malloc at threshold with queued room: %v", err)
				}
			}
			if h.Stats().RemoteDrains == 0 {
				t.Fatal("threshold miss did not drain the ring")
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRemoteRingValidation pins the construction contract: a remote
// ring needs real concurrency (atomic counters), so no RandomFill, and
// no per-operation observation hooks, which Concurrent excludes.
func TestRemoteRingValidation(t *testing.T) {
	if _, err := New(Options{RemoteRing: true}); err == nil {
		t.Error("RemoteRing without Concurrent accepted")
	}
	if _, err := New(Options{RemoteRing: true, Concurrent: true, RandomFill: true}); err == nil {
		t.Error("RemoteRing with RandomFill accepted")
	}
	if _, err := New(Options{RemoteRing: true, Concurrent: true,
		OnFree: func(heap.Ptr, int) {}}); err == nil {
		t.Error("RemoteRing with an OnFree hook accepted")
	}
	if _, err := New(Options{RemoteRing: true, Concurrent: true}); err != nil {
		t.Errorf("valid RemoteRing heap refused: %v", err)
	}
}

// TestRemoteRingPlacementUnchanged pins the w1 contract: enabling the
// ring without using it changes nothing — a heap with RemoteRing set
// places every object at exactly the addresses the plain concurrent
// heap places them, through an interleaved malloc/free churn.
func TestRemoteRingPlacementUnchanged(t *testing.T) {
	opts := Options{HeapSize: 48 << 20, Seed: 77, Concurrent: true}
	plain, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.RemoteRing = true
	ringed, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewSeeded(42)
	live := make([]heap.Ptr, 0, 512)
	for i := 0; i < 4000; i++ {
		if len(live) > 0 && r.Intn(3) == 0 {
			k := r.Intn(len(live))
			p := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := plain.Free(p); err != nil {
				t.Fatal(err)
			}
			if err := ringed.Free(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		size := 8 << r.Intn(8)
		a, err1 := plain.Malloc(size)
		b, err2 := ringed.Malloc(size)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("op %d: placement diverged %#x vs %#x with the ring merely enabled", i, a, b)
		}
		live = append(live, a)
	}
}

// TestRemoteCrossFreeRaceBattery is the N-worker producer-consumer
// soak: workers allocate through per-worker sharded magazines, hand
// their batches to the next worker in the ring, and that worker frees
// them through RemoteFree — with racing double frees and wild frees
// (forged in-heap addresses and foreign pointers) layered on top. The
// battery ends at the full barrier stack: magazines closed, invariants
// checked (which drains every shard's ring), and bitmap popcount
// compared against occupancy on every shard.
func TestRemoteCrossFreeRaceBattery(t *testing.T) {
	const (
		workers = 4
		shards  = 4
		rounds  = 120
		batch   = 32
	)
	sh, err := NewSharded(shards, Options{HeapSize: shards * 12 << 20, Seed: 31, RemoteRing: true})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]chan []heap.Ptr, workers)
	for i := range chans {
		chans[i] = make(chan []heap.Ptr, 4)
	}
	var doubles, wilds atomic.Uint64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mag, err := sh.NewMagazine()
			if err != nil {
				errs[w] = err
				return
			}
			defer mag.Close()
			r := rng.NewSeeded(uint64(1000 + w))
			sizes := []int{16, 64, 64, 256, 1024}
			for round := 0; round < rounds; round++ {
				// Produce a batch and hand it to the next worker.
				ptrs := make([]heap.Ptr, batch)
				for i := range ptrs {
					p, err := mag.Malloc(sizes[r.Intn(len(sizes))])
					if err != nil {
						errs[w] = err
						return
					}
					ptrs[i] = p
				}
				chans[(w+1)%workers] <- ptrs
				// Consume a batch from the previous worker via the ring,
				// with fault injection racing the legitimate frees.
				for _, p := range <-chans[w] {
					if err := sh.RemoteFree(p); err != nil {
						errs[w] = err
						return
					}
					switch r.Intn(16) {
					case 0: // racing double free (remote and sync routes)
						doubles.Add(1)
						_ = sh.RemoteFree(p)
						_ = sh.Free(p)
					case 1: // wild in-heap free: misaligned interior pointer
						wilds.Add(1)
						_ = sh.RemoteFree(p + 3)
					case 2: // foreign pointer: owned by no shard
						wilds.Add(1)
						_ = sh.RemoteFree(0xdead0000 + uint64(r.Intn(1<<12)))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		popcountVsInUse(t, sh.Shard(i))
	}
	st := sh.Stats()
	// Counter tolerance — UNTAGGED heaps only (§12 caveat): exactly-one-
	// winner holds per set-epoch of a bit, but an injected double free
	// that straddles a reallocation (first free drained, slot re-claimed,
	// second free lands on the new occupant — or on a magazine pre-claim)
	// is indistinguishable from a valid free, in this allocator as in the
	// paper's. Each injected double can therefore skew the app-level
	// Frees and LiveObjects counters by at most one; the metadata
	// invariants above (CheckInvariants, popcount == inUse) are exact
	// regardless. Generation-tagged heaps (§15) close exactly this gap —
	// TestRemoteCrossFreeFatBatteryExact below runs the same battery with
	// zero tolerance.
	tol := doubles.Load()
	if live := int64(st.LiveObjects); live < -int64(tol) || live > int64(tol) {
		t.Errorf("LiveObjects = %d after all batches freed; want |live| <= %d doubles", live, tol)
	}
	want := uint64(workers * rounds * batch)
	if st.Frees < want-tol || st.Frees > want+tol {
		t.Errorf("Frees = %d; want one winner per object (%d) within %d doubles", st.Frees, want, tol)
	}
	if st.RemoteFrees == 0 {
		t.Error("RemoteFrees = 0: the battery never exercised the ring")
	}
	if st.IgnoredFrees < doubles.Load() {
		t.Errorf("IgnoredFrees = %d < %d injected double frees", st.IgnoredFrees, doubles.Load())
	}
	t.Logf("remote frees %d over %d drains (mean batch %.1f), %d doubles, %d wilds, ignored %d",
		st.RemoteFrees, st.RemoteDrains,
		float64(st.RemoteFrees)/float64(max(st.RemoteDrains, 1)),
		doubles.Load(), wilds.Load(), st.IgnoredFrees)
}

// TestRemoteCrossFreeFatBatteryExact is the gen-tagged (§15) twin of the
// battery above with ZERO counter tolerance: the generation word
// arbitrates every free, so an injected double that straddles a
// reallocation — the case the untagged battery must tolerate — is a
// deterministic StaleFrees rejection. Every counter is asserted exactly:
// one accepted free per fat pointer, two stale rejections per injected
// double (of the three racing attempts on one incarnation, exactly one
// wins the generation CAS), one IgnoredFrees per misaligned wild, one
// StaleFrees per foreign fat pointer.
func TestRemoteCrossFreeFatBatteryExact(t *testing.T) {
	const (
		workers = 4
		shards  = 4
		rounds  = 120
		batch   = 32
	)
	sh, err := NewSharded(shards, Options{
		HeapSize: shards * 12 << 20, Seed: 31, RemoteRing: true, GenTags: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]chan []heap.FatPtr, workers)
	for i := range chans {
		chans[i] = make(chan []heap.FatPtr, 4)
	}
	var doubles, misaligned, foreign atomic.Uint64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewSeeded(uint64(2000 + w))
			sizes := []int{16, 64, 64, 256, 1024}
			for round := 0; round < rounds; round++ {
				fps := make([]heap.FatPtr, batch)
				for i := range fps {
					fp, err := sh.MallocFat(sizes[r.Intn(len(sizes))])
					if err != nil {
						errs[w] = err
						return
					}
					fps[i] = fp
				}
				chans[(w+1)%workers] <- fps
				for _, fp := range <-chans[w] {
					if _, err := sh.RemoteFreeFat(fp); err != nil {
						errs[w] = err
						return
					}
					switch r.Intn(16) {
					case 0: // racing double free: remote and sync routes at once
						doubles.Add(1)
						_, _ = sh.RemoteFreeFat(fp)
						_, _ = sh.FreeFat(fp)
					case 1: // wild in-heap free: misaligned interior pointer
						misaligned.Add(1)
						_, _ = sh.RemoteFreeFat(heap.FatPtr{Addr: fp.Addr + 3, Gen: fp.Gen})
					case 2: // foreign fat pointer: owned by no shard
						foreign.Add(1)
						_, _ = sh.FreeFat(heap.FatPtr{
							Addr: 0xdead0000 + uint64(r.Intn(1<<12)), Gen: 0x99,
						})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		popcountVsInUse(t, sh.Shard(i))
	}
	st := sh.Stats()
	want := uint64(workers * rounds * batch)
	if st.Frees != want {
		t.Errorf("Frees = %d; want exactly %d (one accepted free per fat pointer, no tolerance)",
			st.Frees, want)
	}
	if st.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d; want exactly 0", st.LiveObjects)
	}
	// Each double adds two losing attempts on an incarnation with one
	// winner; each foreign fat free resolves to no live object. Both are
	// temporal errors: stale, with evidence — never silently absorbed.
	if wantStale := 2*doubles.Load() + foreign.Load(); st.StaleFrees != wantStale {
		t.Errorf("StaleFrees = %d; want exactly %d (2×%d doubles + %d foreign)",
			st.StaleFrees, wantStale, doubles.Load(), foreign.Load())
	}
	// Misaligned interior pointers are spatial errors and keep the plain
	// §4.3 ignore — also exact on a tagged heap.
	if st.IgnoredFrees != misaligned.Load() {
		t.Errorf("IgnoredFrees = %d; want exactly %d misaligned wilds",
			st.IgnoredFrees, misaligned.Load())
	}
	if st.Retired != 0 {
		t.Errorf("Retired = %d; want 0 (generations nowhere near the ceiling)", st.Retired)
	}
	if st.RemoteFrees == 0 {
		t.Error("RemoteFrees = 0: the battery never exercised the ring")
	}
	t.Logf("exact battery: %d frees, %d stale, %d ignored over %d remote drains",
		st.Frees, st.StaleFrees, st.IgnoredFrees, st.RemoteDrains)
}
