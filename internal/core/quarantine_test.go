package core

import (
	"math"
	"testing"

	"diehard/internal/analysis"
	"diehard/internal/heap"
	"diehard/internal/rng"
)

// TestSizeAdjustPadsAllocation: the SizeAdjust hook grows the served
// request, so a padded allocation lands in a larger class and the
// overflow reach the pad was sized for stays inside the object's slot.
func TestSizeAdjustPadsAllocation(t *testing.T) {
	pad := 0
	h := testHeap(t, Options{SizeAdjust: func(size int) int { return size + pad }})

	p, err := h.Malloc(48)
	if err != nil {
		t.Fatal(err)
	}
	if _, size, _ := h.ObjectBounds(p); size != 64 {
		t.Fatalf("unpadded 48B request served from %dB slot, want 64", size)
	}

	pad = 24 // 48+24 = 72 rounds to the 128B class
	q, err := h.Malloc(48)
	if err != nil {
		t.Fatal(err)
	}
	if _, size, _ := h.ObjectBounds(q); size != 128 {
		t.Fatalf("padded 48B request served from %dB slot, want 128", size)
	}
	// The pad is invisible to the caller but real to the accounting:
	// Free accepts the pointer and the byte counters saw the padded size.
	if err := h.Free(q); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSizeAdjustNeverShrinks: a hook returning less than the request
// must not shrink the allocation (a countermeasure may only add slack).
func TestSizeAdjustNeverShrinks(t *testing.T) {
	h := testHeap(t, Options{SizeAdjust: func(size int) int { return size / 2 }})
	p, err := h.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, size, _ := h.ObjectBounds(p); size != 128 {
		t.Fatalf("shrinking SizeAdjust honored: 100B request in %dB slot, want 128", size)
	}
}

// TestQuarantineLifecycle walks a held slot through divert -> hold ->
// release: the bit stays set and the occupancy unit stays reserved while
// held (so the probe stream cannot re-issue the slot), and the normal
// free accounting fires only at release.
func TestQuarantineLifecycle(t *testing.T) {
	on := false
	h := testHeap(t, Options{FreeFilter: func(p heap.Ptr, slotSize int) bool { return on }})

	const n = 10
	ptrs := make([]heap.Ptr, n)
	for i := range ptrs {
		p, err := h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	on = true
	for _, p := range ptrs {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.Quarantined != n || h.QuarantineLen() != n {
		t.Fatalf("held %d/%d after %d filtered frees", st.Quarantined, h.QuarantineLen(), n)
	}
	if st.Frees != 0 || st.LiveObjects != n {
		t.Fatalf("divert leaked into free accounting: frees=%d live=%d", st.Frees, st.LiveObjects)
	}
	popcountVsInUse(t, h) // bits still set, occupancy still reserved

	// Held slots are out of the probe stream: new allocations may not
	// receive any quarantined address.
	held := make(map[heap.Ptr]bool, n)
	for _, p := range ptrs {
		held[p] = true
	}
	on = false
	fresh := make([]heap.Ptr, 0, 3*n)
	for i := 0; i < 3*n; i++ {
		p, err := h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if held[p] {
			t.Fatalf("allocation %d reissued quarantined slot %#x", i, p)
		}
		fresh = append(fresh, p)
	}

	if got := h.FlushQuarantine(); got != n {
		t.Fatalf("flush released %d, want %d", got, n)
	}
	st = h.Stats()
	if st.QuarantineOut != n || st.Frees != n {
		t.Fatalf("release accounting: out=%d frees=%d, want %d", st.QuarantineOut, st.Frees, n)
	}
	if h.QuarantineLen() != 0 {
		t.Fatalf("quarantine not empty after flush: %d", h.QuarantineLen())
	}
	for _, p := range fresh {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.LiveObjects != 0 {
		t.Fatalf("LiveObjects = %d after teardown", st.LiveObjects)
	}
}

// TestQuarantineDoubleFreeOneWinner: duplicate frees of a quarantined
// slot re-enqueue it, and the deferred arbitration at release time lets
// exactly one release win the clear — §4.3's exactly-one-winner free
// survives the deferral.
func TestQuarantineDoubleFreeOneWinner(t *testing.T) {
	h := testHeap(t, Options{FreeFilter: func(heap.Ptr, int) bool { return true }})
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err) // bit still set: the filter diverts the duplicate too
	}
	st := h.Stats()
	if st.Quarantined != 2 || h.QuarantineLen() != 2 {
		t.Fatalf("duplicate enqueue: quarantined=%d len=%d, want 2", st.Quarantined, h.QuarantineLen())
	}
	if got := h.FlushQuarantine(); got != 1 {
		t.Fatalf("flush released %d, want exactly 1 winner", got)
	}
	st = h.Stats()
	if st.QuarantineOut != 1 || st.Frees != 1 || st.IgnoredFrees != 1 {
		t.Fatalf("out=%d frees=%d ignored=%d, want 1/1/1", st.QuarantineOut, st.Frees, st.IgnoredFrees)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineCapEviction: the FIFO holds at most QuarantineCap slots;
// pushing past the cap releases the oldest, keeping the occupancy debt
// bounded. A long churn also exercises the consumed-prefix compaction.
func TestQuarantineCapEviction(t *testing.T) {
	const cap = 4
	h := testHeap(t, Options{
		QuarantineCap: cap,
		FreeFilter:    func(heap.Ptr, int) bool { return true },
	})
	const n = 200
	for i := 0; i < n; i++ {
		p, err := h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
		if got := h.QuarantineLen(); got > cap {
			t.Fatalf("hold %d: quarantine grew to %d, cap %d", i, got, cap)
		}
	}
	st := h.Stats()
	if st.Quarantined != n {
		t.Fatalf("Quarantined = %d, want %d", st.Quarantined, n)
	}
	if st.QuarantineOut != n-cap {
		t.Fatalf("evictions released %d, want %d", st.QuarantineOut, n-cap)
	}
	if got := h.FlushQuarantine(); got != cap {
		t.Fatalf("final flush released %d, want %d", got, cap)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.LiveObjects != 0 {
		t.Fatalf("LiveObjects = %d after flush", st.LiveObjects)
	}
}

// TestIdleHooksPreserveLayout is the unit-level half of the golden-hash
// guard: hooks that are installed but idle (identity SizeAdjust, always-
// false FreeFilter) must reproduce the hook-free heap's exact allocation
// sequence, so healing-off runs stay byte-identical to the recordings.
func TestIdleHooksPreserveLayout(t *testing.T) {
	plain := testHeap(t, Options{})
	hooked := testHeap(t, Options{
		SizeAdjust: func(size int) int { return size },
		FreeFilter: func(heap.Ptr, int) bool { return false },
	})
	r := rng.NewSeeded(99)
	var livePlain, liveHooked []heap.Ptr
	for i := 0; i < 2000; i++ {
		if len(livePlain) > 0 && r.Intn(3) == 0 {
			j := r.Intn(len(livePlain))
			if err := plain.Free(livePlain[j]); err != nil {
				t.Fatal(err)
			}
			if err := hooked.Free(liveHooked[j]); err != nil {
				t.Fatal(err)
			}
			livePlain[j] = livePlain[len(livePlain)-1]
			livePlain = livePlain[:len(livePlain)-1]
			liveHooked[j] = liveHooked[len(liveHooked)-1]
			liveHooked = liveHooked[:len(liveHooked)-1]
			continue
		}
		size := 8 << r.Intn(8)
		p1, err := plain.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := hooked.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Fatalf("op %d: idle hooks perturbed placement: %#x vs %#x", i, p1, p2)
		}
		livePlain = append(livePlain, p1)
		liveHooked = append(liveHooked, p2)
	}
	if hooked.Stats().Quarantined != 0 {
		t.Fatalf("idle FreeFilter quarantined %d frees", hooked.Stats().Quarantined)
	}
}

// TestFreeFilterOnRandomFillHeap: a replicated-mode heap runs the same
// engine as every other, so the quarantine composes with RandomFill: a
// filtered free holds the slot live until the flush releases it.
func TestFreeFilterOnRandomFillHeap(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 4, RandomFill: true,
		FreeFilter: func(heap.Ptr, int) bool { return true }})
	if err != nil {
		t.Fatalf("RandomFill + FreeFilter refused: %v", err)
	}
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if _, live := h.SizeOf(p); !live || h.QuarantineLen() != 1 {
		t.Fatalf("filtered free not held: live=%v, quarantine %d", live, h.QuarantineLen())
	}
	if n := h.FlushQuarantine(); n != 1 {
		t.Errorf("FlushQuarantine released %d, want 1", n)
	}
	if _, live := h.SizeOf(p); live {
		t.Error("released slot still live")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineProbeShiftBracket brackets the measured probe-cost ratio
// of a quarantine-laden class against analysis.QuarantineFullnessShift:
// holding Q slots raises effective fullness by Q/total at the same live
// load, and at the quarantined class's capacity the ratio is exactly
// 1 + MQ/(total(M-1)).
func TestQuarantineProbeShiftBracket(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical bracket, skipped in -short")
	}
	const size = 64
	const trials = 30000
	mkHeap := func(on *bool) *Heap {
		return testHeap(t, Options{
			HeapSize:      3 << 20,
			Seed:          4242,
			QuarantineCap: 1 << 20, // never evict during setup
			FreeFilter:    func(heap.Ptr, int) bool { return *on },
		})
	}
	measure := func(h *Heap, ptrs []heap.Ptr, r *rng.MWC) float64 {
		before := h.Stats().Probes
		for i := 0; i < trials; i++ {
			j := r.Intn(len(ptrs))
			if err := h.Free(ptrs[j]); err != nil {
				t.Fatal(err)
			}
			p, err := h.Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			ptrs[j] = p
		}
		return float64(h.Stats().Probes-before) / trials
	}

	var on bool
	h := mkHeap(&on)
	total, maxInUse := h.ClassSlots(ClassFor(size))
	q := maxInUse / 4
	live := maxInUse - q

	// Quarantined class at capacity: live objects + q held slots.
	ptrs := make([]heap.Ptr, maxInUse)
	for i := range ptrs {
		p, err := h.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	on = true
	for _, p := range ptrs[live:] {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	on = false
	if h.QuarantineLen() != q {
		t.Fatalf("held %d, want %d", h.QuarantineLen(), q)
	}
	withQ := measure(h, ptrs[:live], rng.NewSeeded(17))

	// Baseline class at the same live load, no quarantine.
	var off bool
	h2 := mkHeap(&off)
	ptrs2 := make([]heap.Ptr, live)
	for i := range ptrs2 {
		p, err := h2.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		ptrs2[i] = p
	}
	without := measure(h2, ptrs2, rng.NewSeeded(23))

	want := analysis.QuarantineFullnessShift(total, h.M(), q)
	got := withQ / without
	t.Logf("probes with quarantine %.3f, without %.3f: shift %.3f, predicted %.3f (total=%d q=%d)",
		withQ, without, got, want, total, q)
	if math.Abs(got-want) > 0.08 {
		t.Errorf("measured shift %.3f, predicted %.3f", got, want)
	}
}
