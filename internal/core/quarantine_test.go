package core

import (
	"math"
	"testing"

	"diehard/internal/analysis"
	"diehard/internal/heap"
	"diehard/internal/rng"
)

// TestQuarantineLifecycle walks a held slot through Quarantine -> hold
// -> release: the bit stays set and the occupancy unit stays reserved
// while held (so the probe stream cannot re-issue the slot), and the
// normal free accounting fires only at release.
func TestQuarantineLifecycle(t *testing.T) {
	h := testHeap(t, Options{})

	const n = 10
	ptrs := make([]heap.Ptr, n)
	for i := range ptrs {
		p, err := h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	for _, p := range ptrs {
		if err := h.Quarantine(p); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.Quarantined != n || h.QuarantineLen() != n {
		t.Fatalf("held %d/%d after %d quarantined frees", st.Quarantined, h.QuarantineLen(), n)
	}
	if st.Frees != 0 || st.LiveObjects != n {
		t.Fatalf("hold leaked into free accounting: frees=%d live=%d", st.Frees, st.LiveObjects)
	}
	popcountVsInUse(t, h) // bits still set, occupancy still reserved

	// Held slots are out of the probe stream: new allocations may not
	// receive any quarantined address.
	held := make(map[heap.Ptr]bool, n)
	for _, p := range ptrs {
		held[p] = true
	}
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
	h := testHeap(t, Options{})
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Quarantine(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Quarantine(p); err != nil {
		t.Fatal(err) // bit still set: the duplicate is held too
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
	h := testHeap(t, Options{QuarantineCap: cap})
	const n = 200
	for i := 0; i < n; i++ {
		p, err := h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Quarantine(p); err != nil {
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

// TestQuarantineOnRandomFillHeap: a replicated-mode heap runs the same
// engine as every other, so the quarantine composes with RandomFill: a
// quarantined free holds the slot live until the flush releases it.
func TestQuarantineOnRandomFillHeap(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 4, RandomFill: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Quarantine(p); err != nil {
		t.Fatal(err)
	}
	if _, live := h.SizeOf(p); !live || h.QuarantineLen() != 1 {
		t.Fatalf("quarantined free not held: live=%v, quarantine %d", live, h.QuarantineLen())
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
	mkHeap := func() *Heap {
		return testHeap(t, Options{
			HeapSize:      3 << 20,
			Seed:          4242,
			QuarantineCap: 1 << 20, // never evict during setup
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

	h := mkHeap()
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
	for _, p := range ptrs[live:] {
		if err := h.Quarantine(p); err != nil {
			t.Fatal(err)
		}
	}
	if h.QuarantineLen() != q {
		t.Fatalf("held %d, want %d", h.QuarantineLen(), q)
	}
	withQ := measure(h, ptrs[:live], rng.NewSeeded(17))

	// Baseline class at the same live load, no quarantine.
	h2 := mkHeap()
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
