package core

// Unit and race batteries for the generation-tagged tier (DESIGN.md
// §15): parity bookkeeping across every free route (synchronous,
// quarantined, magazine-flushed, remote-ring-drained), the
// deterministic stale-free rejection that closes §12's straddling-
// reallocation gap, retirement at the tag ceiling, and the
// placement-identical contract that keeps the probabilistic tier's
// golden hashes untouched. TestFatPtrLifecycleRace runs under the race
// detector in CI.

import (
	"sync"
	"sync/atomic"
	"testing"

	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/rng"
)

// TestGenTagBasics pins the single-heap fat-pointer contract: the first
// claim of a slot issues generation 1 (odd = allocated), an accepted
// free bumps it even, a second free of the same fat pointer is a
// deterministic StaleFrees rejection with the OnStaleFree evidence
// callback, misaligned interior pointers keep the spatial §4.3 ignore,
// forged tags (even, zero, oversized) are rejected as stale by every
// fat-free route, and the fat API refuses untagged heaps before
// allocating anything.
func TestGenTagBasics(t *testing.T) {
	var evAddr heap.Ptr
	var evGen uint64
	var evCount int
	h, err := New(Options{
		HeapSize: 12 << 20, Seed: 7, GenTags: true,
		OnStaleFree: func(p heap.Ptr, gen uint64) { evAddr, evGen = p, gen; evCount++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.GenTagged() {
		t.Fatal("GenTagged() = false on a GenTags heap")
	}
	fp, err := h.MallocFat(64)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Gen != 1 {
		t.Fatalf("first claim issued generation %d; want 1", fp.Gen)
	}
	if !h.CheckGen(fp) {
		t.Fatal("CheckGen(live fat pointer) = false")
	}
	if ok, err := h.FreeFat(fp); !ok || err != nil {
		t.Fatalf("FreeFat(live) = %v, %v; want accepted", ok, err)
	}
	if g, ok := h.GenOf(fp.Addr); !ok || g != 2 {
		t.Fatalf("generation after free = %d, %v; want 2 (even = free)", g, ok)
	}
	if h.CheckGen(fp) {
		t.Fatal("CheckGen(freed fat pointer) = true: stale use undetected")
	}
	// The double free: rejected, counted, and reported as evidence.
	if ok, err := h.FreeFat(fp); ok || err != nil {
		t.Fatalf("double FreeFat = %v, %v; want rejected, nil", ok, err)
	}
	if evCount != 1 || evAddr != fp.Addr || evGen != fp.Gen {
		t.Fatalf("OnStaleFree saw (%#x, %d) ×%d; want (%#x, %d) ×1",
			evAddr, evGen, evCount, fp.Addr, fp.Gen)
	}
	if st := h.Stats(); st.StaleFrees != 1 {
		t.Fatalf("StaleFrees = %d; want 1", st.StaleFrees)
	}
	// Reallocation bumps back to odd and the new fat pointer validates.
	fp2, err := h.MallocFat(64)
	if err != nil {
		t.Fatal(err)
	}
	if fp2.Gen&1 != 1 {
		t.Fatalf("reissued generation %d is even", fp2.Gen)
	}
	// Misaligned interior pointer: spatial, not temporal — ignored.
	if ok, _ := h.FreeFat(heap.FatPtr{Addr: fp2.Addr + 3, Gen: fp2.Gen}); ok {
		t.Fatal("misaligned FreeFat accepted")
	}
	if st := h.Stats(); st.IgnoredFrees != 1 || st.StaleFrees != 1 {
		t.Fatalf("IgnoredFrees, StaleFrees = %d, %d; want 1, 1 (misalignment is not stale)",
			st.IgnoredFrees, st.StaleFrees)
	}
	// free(NULL) stays a no-op.
	if ok, err := h.FreeFat(heap.FatPtr{}); !ok || err != nil {
		t.Fatalf("FreeFat(null) = %v, %v; want true, nil", ok, err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Forged tags can never have been issued: every fat-free route
	// rejects them as stale, and the live object survives the route's
	// drain. A zero tag must not pass for an unchecked free — ring cells
	// and magazine buffers use 0 for exactly that.
	ring, err := New(Options{HeapSize: 12 << 20, Seed: 7, GenTags: true, Concurrent: true, RemoteRing: true})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(2, Options{HeapSize: 24 << 20, Seed: 7, GenTags: true, RemoteRing: true})
	if err != nil {
		t.Fatal(err)
	}
	mag, err := h.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	defer mag.Close()
	type tagged interface {
		CheckGen(heap.FatPtr) bool
		CheckInvariants() error
		StatsSnapshot() heap.Stats
	}
	for _, r := range []struct {
		name   string
		heap   tagged
		malloc func(int) (heap.FatPtr, error)
		free   func(heap.FatPtr) (bool, error)
	}{
		{"Heap.FreeFat", h, h.MallocFat, h.FreeFat},
		{"Heap.RemoteFreeFat", ring, ring.MallocFat, ring.RemoteFreeFat},
		{"ShardedHeap.RemoteFreeFat", sh, sh.Shard(1).MallocFat, sh.RemoteFreeFat},
		{"Magazine.FreeFat", h, h.MallocFat, mag.FreeFat},
	} {
		live, err := r.malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		stale := r.heap.StatsSnapshot().StaleFrees
		forged := []uint64{0, 2, 1 << 33, uint64(genRetired)}
		for _, g := range forged {
			if ok, err := r.free(heap.FatPtr{Addr: live.Addr, Gen: g}); ok || err != nil {
				t.Errorf("%s: forged tag %#x = %v, %v; want rejected", r.name, g, ok, err)
			}
		}
		if err := r.heap.CheckInvariants(); err != nil { // drains rings and magazines
			t.Fatalf("%s: %v", r.name, err)
		}
		if !r.heap.CheckGen(live) {
			t.Errorf("%s: live object invalidated by rejected forgeries", r.name)
		}
		if got := r.heap.StatsSnapshot().StaleFrees - stale; got != uint64(len(forged)) {
			t.Errorf("%s: StaleFrees += %d; want %d", r.name, got, len(forged))
		}
	}
	// The fat API demands a tagged heap, and refuses before allocating:
	// a refused MallocFat leaves nothing live that no one could free.
	un, err := New(Options{HeapSize: 12 << 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	unSharded, err := NewSharded(2, Options{HeapSize: 24 << 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []interface {
		MallocFat(int) (heap.FatPtr, error)
		StatsSnapshot() heap.Stats
	}{un, unSharded} {
		for _, size := range []int{64, MaxObjectSize + 1} {
			if fp, err := a.MallocFat(size); err != ErrNotGenTagged || fp != (heap.FatPtr{}) {
				t.Fatalf("%T.MallocFat(%d) on untagged heap: %v, %v; want null, ErrNotGenTagged", a, size, fp, err)
			}
		}
		if live := a.StatsSnapshot().LiveObjects; live != 0 {
			t.Fatalf("%T: refused MallocFat left %d live objects; want 0", a, live)
		}
	}
	if _, err := un.FreeFat(heap.FatPtr{Addr: 1, Gen: 1}); err != ErrNotGenTagged {
		t.Fatalf("FreeFat on untagged heap: %v; want ErrNotGenTagged", err)
	}
}

// TestGenTagStaleAcrossRealloc pins the tentpole fix: a double free that
// straddles a reallocation — undetectable by the pure bitmap protocol
// (§12's tolerated skew) — is rejected deterministically, and the new
// incarnation survives it untouched. The straddling free takes each
// route in turn: the synchronous FreeFat, and a magazine's FreeFat,
// whose verdict lands at the flush with the same evidence — exactly one
// StaleFrees, one OnStaleFree(addr, gen), and one EvStaleFree.
func TestGenTagStaleAcrossRealloc(t *testing.T) {
	for _, route := range []string{"sync", "magazine"} {
		t.Run(route, func(t *testing.T) {
			var evidence []heap.FatPtr
			h, err := New(Options{
				HeapSize: 12 << 20, Seed: 13, GenTags: true,
				OnStaleFree: func(p heap.Ptr, gen uint64) {
					evidence = append(evidence, heap.FatPtr{Addr: p, Gen: gen})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			old, err := h.MallocFat(4096)
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := h.FreeFat(old); !ok || err != nil {
				t.Fatalf("FreeFat = %v, %v", ok, err)
			}
			// Churn until random placement reissues the same slot.
			var cur heap.FatPtr
			for i := 0; ; i++ {
				if i == 100000 {
					t.Fatal("slot never reissued in 100k probes")
				}
				fp, err := h.MallocFat(4096)
				if err != nil {
					t.Fatal(err)
				}
				if fp.Addr == old.Addr {
					cur = fp
					break
				}
				if ok, err := h.FreeFat(fp); !ok || err != nil {
					t.Fatalf("churn free = %v, %v", ok, err)
				}
			}
			if cur.Gen != old.Gen+2 {
				t.Fatalf("reissued generation %d; want %d (one free + one claim past %d)",
					cur.Gen, old.Gen+2, old.Gen)
			}
			rec := obs.NewRecorder(64)
			h.trace = rec.Ring(0)
			// The straddling double free: same address, dead generation.
			if route == "magazine" {
				mag, err := h.NewMagazine()
				if err != nil {
					t.Fatal(err)
				}
				if ok, err := mag.FreeFat(old); !ok || err != nil {
					t.Fatalf("magazine FreeFat = %v, %v; want queued", ok, err)
				}
				if st := h.Stats(); st.StaleFrees != 0 || len(evidence) != 0 {
					t.Fatalf("verdict before the flush: StaleFrees=%d, evidence %v", st.StaleFrees, evidence)
				}
				mag.Close() // the flush arbitrates the buffered tag
			} else if ok, _ := h.FreeFat(old); ok {
				t.Fatal("stale free across reallocation accepted — the §12 gap is open")
			}
			if got := h.Stats().StaleFrees; got != 1 {
				t.Fatalf("StaleFrees = %d; want 1", got)
			}
			if len(evidence) != 1 || evidence[0] != old {
				t.Fatalf("OnStaleFree saw %v; want exactly [%v]", evidence, old)
			}
			var events []obs.Event
			for _, e := range rec.Snapshot() {
				if e.Kind == obs.EvStaleFree.String() {
					events = append(events, e)
				}
			}
			if len(events) != 1 || events[0].Arg != old.Addr {
				t.Fatalf("stale_free events %v; want one at %#x", events, old.Addr)
			}
			if !h.CheckGen(cur) {
				t.Fatal("new incarnation invalidated by the rejected stale free")
			}
			if ok, err := h.FreeFat(cur); !ok || err != nil {
				t.Fatalf("legitimate free of the new incarnation = %v, %v", ok, err)
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGenTagQuarantine pins the unified quarantine contract: Quarantine
// runs the generation transition before the hold, so the held slot sits
// bit-set with an even word — stale frees and stale uses during the
// hold are detected, the FIFO never holds duplicates, and the release
// is the slot's sole bit-clearer.
func TestGenTagQuarantine(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 17, GenTags: true})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := h.MallocFat(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Quarantine(fp.Addr); err != nil {
		t.Fatal(err)
	}
	if n := h.QuarantineLen(); n != 1 {
		t.Fatalf("QuarantineLen = %d; want 1", n)
	}
	if h.CheckGen(fp) {
		t.Fatal("stale use of a quarantined slot validated")
	}
	// A second free during the hold is stale — it must NOT enqueue a
	// duplicate (the duplicate's release would race the reallocated
	// slot's bit). Neither may an unchecked second Quarantine: the lost
	// transition is a §4.3 ignore.
	if ok, _ := h.FreeFat(fp); ok {
		t.Fatal("double free of a quarantined slot accepted")
	}
	if err := h.Quarantine(fp.Addr); err != nil {
		t.Fatal(err)
	}
	if n := h.QuarantineLen(); n != 1 {
		t.Fatalf("QuarantineLen = %d after rejected doubles; want 1 (no duplicate held)", n)
	}
	if st := h.Stats(); st.StaleFrees != 1 || st.IgnoredFrees != 1 || st.Frees != 0 {
		t.Fatalf("StaleFrees, IgnoredFrees, Frees = %d, %d, %d during hold; want 1, 1, 0 (free counted at release)",
			st.StaleFrees, st.IgnoredFrees, st.Frees)
	}
	if n := h.FlushQuarantine(); n != 1 {
		t.Fatalf("FlushQuarantine released %d; want 1", n)
	}
	if st := h.Stats(); st.Frees != 1 || st.QuarantineOut != 1 {
		t.Fatalf("Frees, QuarantineOut = %d, %d after flush; want 1, 1", st.Frees, st.QuarantineOut)
	}
	if g, ok := h.GenOf(fp.Addr); !ok || g != fp.Gen+1 {
		t.Fatalf("generation after release = %d; want %d", g, fp.Gen+1)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGenTagMagazineFlush pins the batched routes: magazine refills bump
// claims, flushed frees run the generation arbitration, and a duplicate
// free queued through the magazine loses exactly like a synchronous one.
func TestGenTagMagazineFlush(t *testing.T) {
	h, err := New(Options{HeapSize: 24 << 20, Seed: 19, Concurrent: true, GenTags: true})
	if err != nil {
		t.Fatal(err)
	}
	mag, err := h.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	ptrs := make([]heap.Ptr, n)
	for i := range ptrs {
		p, err := mag.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := h.GenOf(p); !ok || g&1 != 1 {
			t.Fatalf("magazine-refilled slot %#x has generation %d; want odd (claimed)", p, g)
		}
		ptrs[i] = p
	}
	for _, p := range ptrs {
		if err := mag.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate queued behind the legitimate free: the flush's
	// generation arbitration must reject it.
	if err := mag.Free(ptrs[0]); err != nil {
		t.Fatal(err)
	}
	mag.Close()
	st := h.Stats()
	if st.Frees != n {
		t.Errorf("Frees = %d after flush; want %d", st.Frees, n)
	}
	if st.IgnoredFrees != 1 {
		t.Errorf("IgnoredFrees = %d; want 1 (the queued duplicate, untagged route)", st.IgnoredFrees)
	}
	if st.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d; want 0", st.LiveObjects)
	}
	for _, p := range ptrs {
		if g, ok := h.GenOf(p); !ok || g&1 != 0 {
			t.Fatalf("flushed slot %#x has generation %d; want even (free)", p, g)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
}

// TestGenTagMagazineStolenClaim pins what a tagged magazine does with a
// pre-claim that a wild free stole and another caller then re-claimed:
// the slot's word has moved past the tag the refill issued, so a pop
// skips the claim and Drain leaves the slot alone. Either way the
// re-claimer's object stays live under its own generation.
func TestGenTagMagazineStolenClaim(t *testing.T) {
	for _, end := range []string{"drain", "pop"} {
		t.Run(end, func(t *testing.T) {
			h, err := New(Options{HeapSize: 12 << 20, Seed: 37, GenTags: true})
			if err != nil {
				t.Fatal(err)
			}
			mag, err := h.NewMagazine()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mag.MallocFat(64); err != nil { // the refill pre-claims a batch
				t.Fatal(err)
			}
			cm := &mag.classes[ClassFor(64)]
			stolen := heap.FatPtr{Addr: cm.slots[cm.next], Gen: uint64(cm.tags[cm.next])}
			// A wild plain free of the pre-claimed address wins the
			// slot's transition (its word is odd) and releases it.
			if err := h.Free(stolen.Addr); err != nil {
				t.Fatal(err)
			}
			var owner heap.FatPtr
			for i := 0; ; i++ {
				if i == 1<<20 {
					t.Fatal("stolen slot never reissued")
				}
				fp, err := h.MallocFat(64)
				if err != nil {
					t.Fatal(err)
				}
				if fp.Addr == stolen.Addr {
					owner = fp
					break
				}
				if ok, err := h.FreeFat(fp); !ok || err != nil {
					t.Fatalf("churn free = %v, %v", ok, err)
				}
			}
			if owner.Gen != stolen.Gen+2 {
				t.Fatalf("re-claim issued generation %d; want %d", owner.Gen, stolen.Gen+2)
			}
			if end == "drain" {
				mag.Drain()
			} else {
				for remaining := len(cm.slots) - cm.next; remaining > 0; remaining-- {
					fp, err := mag.MallocFat(64)
					if err != nil {
						t.Fatal(err)
					}
					if fp.Addr == stolen.Addr {
						t.Fatalf("pop served the stolen pre-claim %#x (tag %d) while its re-claimer holds generation %d",
							fp.Addr, fp.Gen, owner.Gen)
					}
				}
			}
			if g, _ := h.GenOf(owner.Addr); g != owner.Gen {
				t.Fatalf("re-claimed slot's generation went %d -> %d: the magazine released a slot it no longer owns",
					owner.Gen, g)
			}
			if ok, err := h.FreeFat(owner); !ok || err != nil {
				t.Fatalf("re-claimer's free = %v, %v; want accepted", ok, err)
			}
			mag.Close()
			// The plain wild free was accepted on a slot no malloc had
			// served, so it counts one Free the ledger cannot match —
			// an unchecked free's §12 skew; structure stays exact.
			if err := h.CheckInvariantsSlack(1); err != nil {
				t.Fatal(err)
			}
			popcountVsInUse(t, h)
		})
	}
}

// TestGenTagRemoteDrainStale pins the deferred routes: a duplicate fat
// free queued in the remote ring is rejected at drain time by the same
// generation arbitration, even though both entries were queued while the
// slot was still live. The duplicate reaches the ring either directly
// (RemoteFreeFat) or through a magazine whose incremental flush reroutes
// a foreign shard's frees there — the cell must carry the tag, or the
// drain would count the replay as a plain ignored free.
func TestGenTagRemoteDrainStale(t *testing.T) {
	for _, route := range []string{"ring", "magazine"} {
		t.Run(route, func(t *testing.T) {
			sh, err := NewSharded(2, Options{HeapSize: 48 << 20, Seed: 23, RemoteRing: true, GenTags: true})
			if err != nil {
				t.Fatal(err)
			}
			owner := sh.Shard(1)
			fp, err := owner.MallocFat(256)
			if err != nil {
				t.Fatal(err)
			}
			if route == "ring" {
				for i := 0; i < 2; i++ {
					if ok, err := owner.RemoteFreeFat(fp); !ok || err != nil {
						t.Fatalf("RemoteFreeFat #%d = %v, %v; want queued", i, ok, err)
					}
				}
			} else {
				mag, err := sh.NewMagazine()
				if err != nil {
					t.Fatal(err)
				}
				// The class refills from the emptier shard 0, so fp's
				// shard is foreign to this magazine.
				if _, err := mag.MallocFat(256); err != nil {
					t.Fatal(err)
				}
				c := ClassFor(256)
				cm := &mag.classes[c]
				if cm.owner != sh.Shard(0) {
					t.Fatal("magazine refilled from fp's own shard")
				}
				for i := 0; i < 2; i++ {
					if ok, err := mag.FreeFat(fp); !ok || err != nil {
						t.Fatalf("magazine FreeFat #%d = %v, %v; want queued", i, ok, err)
					}
				}
				mag.flushFrees(c, cm, false) // incremental: reroutes both to shard 1's ring
			}
			if st := owner.Stats(); st.Frees != 0 || st.StaleFrees != 0 {
				t.Fatalf("verdict before drain: Frees=%d StaleFrees=%d; want deferral", st.Frees, st.StaleFrees)
			}
			if err := sh.CheckInvariants(); err != nil { // barrier drains the ring
				t.Fatal(err)
			}
			st := owner.Stats()
			if st.Frees != 1 || st.StaleFrees != 1 || st.LiveObjects != 0 {
				t.Fatalf("after drain: Frees=%d StaleFrees=%d Live=%d; want 1, 1, 0",
					st.Frees, st.StaleFrees, st.LiveObjects)
			}
			if st.RemoteFrees != 2 {
				t.Fatalf("RemoteFrees = %d; want 2", st.RemoteFrees)
			}
		})
	}
}

// TestGenTagRetirement pins the wraparound answer: a free at the tag
// ceiling retires the slot — sentinel word, bit and occupancy held
// forever, counted in Retired (not Frees) so conservation still
// balances — and no later free or use of it can ever validate.
func TestGenTagRetirement(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 29, GenTags: true})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := h.MallocFat(64)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the slot to the ceiling without 2³¹ round trips.
	ceiling, ok := h.SetGen(fp.Addr, genRetireAt+1)
	if !ok {
		t.Fatal("SetGen refused a live tagged slot")
	}
	if ok, err := h.FreeFat(ceiling); !ok || err != nil {
		t.Fatalf("retiring free = %v, %v; want accepted", ok, err)
	}
	st := h.Stats()
	if st.Retired != 1 || st.Frees != 0 {
		t.Fatalf("Retired, Frees = %d, %d; want 1, 0 (retirement is not a recycle)",
			st.Retired, st.Frees)
	}
	if g, _ := h.GenOf(fp.Addr); g != uint64(genRetired) {
		t.Fatalf("retired word = %#x; want sentinel %#x", g, genRetired)
	}
	// Nothing validates against a retired slot: not the ceiling tag, not
	// the sentinel, not any forgery.
	for _, g := range []uint64{ceiling.Gen, uint64(genRetired), 1, uint64(genRetireAt) + 3} {
		if ok, _ := h.FreeFat(heap.FatPtr{Addr: fp.Addr, Gen: g}); ok {
			t.Errorf("free with tag %#x accepted on a retired slot", g)
		}
		if h.CheckGen(heap.FatPtr{Addr: fp.Addr, Gen: g}) {
			t.Errorf("CheckGen with tag %#x validated on a retired slot", g)
		}
	}
	// The slot keeps its occupancy unit: still one in-use in its class,
	// and the invariant walk accepts the held bit.
	if use := h.ClassInUse(ClassFor(64)); use != 1 {
		t.Fatalf("ClassInUse = %d after retirement; want 1 (unit held forever)", use)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
	// SetGen refuses tags the allocator could never issue.
	if _, ok := h.SetGen(fp.Addr, 4); ok {
		t.Error("SetGen accepted an even tag")
	}
	if _, ok := h.SetGen(fp.Addr, genRetired); ok {
		t.Error("SetGen accepted the retirement sentinel")
	}
}

// TestGenTagPlacementUnchanged pins the zero-perturbation contract that
// keeps the probabilistic tier's golden hashes valid: the side array is
// segregated metadata, so a tagged heap places every object at exactly
// the addresses its untagged twin does, through an interleaved
// malloc/free churn on both engines' stat modes.
func TestGenTagPlacementUnchanged(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := "sequential"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{HeapSize: 48 << 20, Seed: 77, Concurrent: concurrent}
			plain, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.GenTags = true
			tagged, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewSeeded(42)
			live := make([]heap.FatPtr, 0, 512)
			for i := 0; i < 4000; i++ {
				if len(live) > 0 && r.Intn(3) == 0 {
					k := r.Intn(len(live))
					fp := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					if err := plain.Free(fp.Addr); err != nil {
						t.Fatal(err)
					}
					if ok, err := tagged.FreeFat(fp); !ok || err != nil {
						t.Fatalf("tagged free = %v, %v", ok, err)
					}
					continue
				}
				size := 8 << r.Intn(8)
				a, err1 := plain.Malloc(size)
				b, err2 := tagged.MallocFat(size)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if a != b.Addr {
					t.Fatalf("op %d: placement diverged %#x vs %#x with tags merely enabled",
						i, a, b.Addr)
				}
				live = append(live, b)
			}
		})
	}
}

// TestGenTagValidation pins the construction contract: the tagged tier
// composes with sequential, replicated-mode and concurrent heaps.
func TestGenTagValidation(t *testing.T) {
	if _, err := New(Options{GenTags: true, RandomFill: true}); err != nil {
		t.Errorf("GenTags with RandomFill refused: %v", err)
	}
	if _, err := New(Options{GenTags: true}); err != nil {
		t.Errorf("valid sequential GenTags heap refused: %v", err)
	}
	if _, err := New(Options{GenTags: true, Concurrent: true, RemoteRing: true}); err != nil {
		t.Errorf("valid concurrent GenTags heap refused: %v", err)
	}
}

// TestFatPtrLifecycleRace is the §15 race battery: eight goroutines
// racing malloc, legitimate frees, and stale frees of the same fat
// pointers across every route at once — synchronous FreeFat, the remote
// ring's deferred drain, magazine Malloc/Free and MallocFat/FreeFat
// with their refill/flush churn, and quarantine hold/release — ending
// at the full barrier stack with exactly-one-winner asserted per fat
// pointer and exact global conservation. Runs under the race detector
// in CI (×3).
func TestFatPtrLifecycleRace(t *testing.T) {
	const (
		goroutines = 8
		raced      = 64 // fat pointers every goroutine races to free
		rounds     = 60
		perRound   = 16
	)
	h, err := New(Options{
		HeapSize: 96 << 20, Seed: 41, Concurrent: true, RemoteRing: true, GenTags: true,
		QuarantineCap: 32,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase A — the winner race: every goroutine tries to free every
	// shared fat pointer, the even ones with FreeFat and the odd ones
	// through their own magazine, whose flushes arbitrate the buffered
	// tags; the generation CAS must elect exactly one winner per pointer.
	shared := make([]heap.FatPtr, raced)
	for i := range shared {
		if shared[i], err = h.MallocFat(64); err != nil {
			t.Fatal(err)
		}
	}
	syncWins := make([]atomic.Int32, raced)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for w := 0; w < goroutines; w++ {
		mag, err := h.NewMagazine()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, mag *Magazine) {
			defer wg.Done()
			defer mag.Close()
			for i, fp := range shared {
				if w%2 == 1 {
					if _, err := mag.FreeFat(fp); err != nil { // verdict at the flush
						errs[w] = err
						return
					}
					continue
				}
				ok, err := h.FreeFat(fp)
				if err != nil {
					errs[w] = err
					return
				}
				if ok {
					syncWins[i].Add(1)
				}
			}
		}(w, mag)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("phase A worker %d: %v", w, err)
		}
	}
	for i, fp := range shared {
		if n := syncWins[i].Load(); n > 1 {
			t.Fatalf("fat pointer %d: %d accepted synchronous frees; want at most one", i, n)
		}
		if g, _ := h.GenOf(fp.Addr); g != fp.Gen+1 {
			t.Fatalf("fat pointer %d: generation %d after the race; want %d (exactly one winning transition)",
				i, g, fp.Gen+1)
		}
	}
	if st := h.StatsSnapshot(); st.Frees != raced || st.StaleFrees != raced*(goroutines-1) {
		t.Fatalf("phase A: Frees=%d StaleFrees=%d; want %d, %d (one winner per pointer, every other free stale)",
			st.Frees, st.StaleFrees, raced, raced*(goroutines-1))
	}

	// Phase B — lifecycle churn: each goroutine allocates through the
	// fat API and a magazine at once, frees its objects through rotating
	// routes, replays every fat pointer once more (a guaranteed-stale
	// free that must be rejected), and checks stale uses never validate.
	// Beside the fat traffic, plain magazine pairs churn unchecked frees
	// through the same magazine, so its flushes settle checked and
	// unchecked entries together on one tagged heap.
	var staleAttempts, staleAccepted atomic.Uint64
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mag, err := h.NewMagazine()
			if err != nil {
				errs[w] = err
				return
			}
			defer mag.Close()
			r := rng.NewSeeded(uint64(3000 + w))
			sizes := []int{16, 64, 256, 1024}
			for round := 0; round < rounds; round++ {
				fat := make([]heap.FatPtr, 0, perRound)
				var small []bool // the object is in the 16-byte class
				for i := 0; i < perRound; i++ {
					size := sizes[r.Intn(len(sizes))]
					if i%8 == 7 {
						// Plain magazine route: an unchecked pair whose
						// pop still runs the tag check.
						p, err := mag.Malloc(size)
						if err != nil {
							errs[w] = err
							return
						}
						if err := mag.Free(p); err != nil {
							errs[w] = err
							return
						}
						continue
					}
					var fp heap.FatPtr
					var err error
					if i%8 == 3 {
						fp, err = mag.MallocFat(size) // refill claims carry their tags
					} else {
						fp, err = h.MallocFat(size)
					}
					if err != nil {
						errs[w] = err
						return
					}
					fat = append(fat, fp)
					small = append(small, size == 16)
				}
				// free routes object i by i%3: the remote ring, the
				// magazine's buffer, or synchronously — the 16-byte class
				// into the quarantine, whose holds release through the
				// eviction and flush path, the rest through FreeFat.
				free := func(i int, fp heap.FatPtr) (bool, error) {
					switch {
					case i%3 == 0:
						return h.RemoteFreeFat(fp)
					case i%3 == 1:
						return mag.FreeFat(fp)
					case small[i]:
						return true, h.Quarantine(fp.Addr)
					}
					return h.FreeFat(fp)
				}
				for i, fp := range fat {
					if _, err := free(i, fp); err != nil {
						errs[w] = err
						return
					}
				}
				// Stale replay. A tag freed synchronously is dead right
				// now — even if the slot was since reallocated, the
				// replay is mismatched — so its rejection is asserted
				// immediately. A tag handed to the ring or the magazine
				// has its verdict at the owner's drain or the flush (the
				// replay is queued behind the legitimate free and loses
				// there); the barrier's exact conservation asserts cover
				// those.
				for i, fp := range fat {
					staleAttempts.Add(1)
					if i%3 != 2 {
						if _, err := free(i, fp); err != nil {
							errs[w] = err
							return
						}
						continue
					}
					ok, err := h.FreeFat(fp)
					if err != nil {
						errs[w] = err
						return
					}
					if ok {
						staleAccepted.Add(1)
					}
					if h.CheckGen(fp) {
						staleAccepted.Add(1) // stale use validated: also a bug
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("phase B worker %d: %v", w, err)
		}
	}

	// A replayed tag may meet its slot freed, quarantined, or already
	// reallocated by another goroutine — mismatched in every case. An
	// accepted replay (or a validated stale use) is the §12 gap reopened.
	if n := staleAccepted.Load(); n != 0 {
		t.Errorf("%d of %d stale replays accepted; want 0", n, staleAttempts.Load())
	}

	// Barrier stack: flush the quarantine, drain every ring, audit.
	h.FlushQuarantine()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
	st := h.StatsSnapshot()
	if st.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d after every route drained; want exactly 0 (no §12 tolerance)",
			st.LiveObjects)
	}
	if st.Mallocs != st.Frees+st.Retired {
		t.Errorf("conservation: Mallocs %d != Frees %d + Retired %d",
			st.Mallocs, st.Frees, st.Retired)
	}
	if st.StaleFrees < uint64(raced)*(goroutines-1) {
		t.Errorf("StaleFrees = %d; want at least the %d phase-A losers",
			st.StaleFrees, raced*(goroutines-1))
	}
	if st.Quarantined == 0 || st.QuarantineOut != st.Quarantined {
		t.Errorf("quarantine route: %d held, %d released; want every hold released",
			st.Quarantined, st.QuarantineOut)
	}
	t.Logf("race battery: %d mallocs, %d frees, %d stale rejections (%d replayed), %d quarantined, %d retired",
		st.Mallocs, st.Frees, st.StaleFrees, staleAttempts.Load(), st.Quarantined, st.Retired)
}
