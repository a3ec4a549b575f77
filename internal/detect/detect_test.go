package detect

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"diehard/internal/core"
	"diehard/internal/fault"
	"diehard/internal/heap"
	"diehard/internal/rng"
	"diehard/internal/vmem"
)

func newDetectHeap(t testing.TB, seed uint64) *Heap {
	t.Helper()
	h, err := New(core.Options{HeapSize: 12 << 20, Seed: seed}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// evidenceOf filters a report by kind.
func evidenceOf(r *Report, k Kind) []Evidence {
	var out []Evidence
	for _, ev := range r.Evidence {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

func TestOverflowDetectedAtFree(t *testing.T) {
	h := newDetectHeap(t, 42)
	p, err := h.Malloc(56) // class 64: 8 slack canary bytes
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Mem().Memset(p, 'X', 60); err != nil { // 4 bytes past the request
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	evs := evidenceOf(h.Detector().Report(), KindOverflow)
	if len(evs) != 1 {
		t.Fatalf("got %d overflow evidence records, want 1: %+v", len(evs), evs)
	}
	ev := evs[0]
	if ev.Audit != AuditFree || ev.Object != p || ev.Addr != p+56 || ev.Span != 4 || ev.Length != 4 {
		t.Errorf("evidence = %+v, want free-audit damage at %#x span 4 length 4", ev, p+56)
	}
	if ev.AllocSite != 0 {
		t.Errorf("culprit site = %d, want 0 (first allocation)", ev.AllocSite)
	}
	if ev.Page != (p+56)/4096 || ev.Offset != int((p+56)%4096) {
		t.Errorf("page/offset = %d/%d inconsistent with addr %#x", ev.Page, ev.Offset, p+56)
	}
}

func TestCleanRunProducesNoEvidence(t *testing.T) {
	h := newDetectHeap(t, 7)
	mem := h.Memory()
	var ptrs []heap.Ptr
	for i := 0; i < 200; i++ {
		size := 16 + (i*13)%48
		p, err := h.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Memset(p, byte(0x30+i%10), size); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.Load64(p); err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
		if i%3 == 0 {
			j := (i * 7) % len(ptrs)
			if ptrs[j] != 0 {
				if err := h.Free(ptrs[j]); err != nil {
					t.Fatal(err)
				}
				ptrs[j] = 0
			}
		}
	}
	h.Detector().HeapCheck()
	if r := h.Detector().Report(); len(r.Evidence) != 0 {
		t.Fatalf("clean workload produced evidence: %+v", r.Evidence)
	}
}

func TestDanglingDetectedAtReuseAndHeapCheck(t *testing.T) {
	// A tiny heap (64 slots in class 64) so the churn below recycles the
	// victim slot quickly.
	h, err := New(core.Options{HeapSize: 12 << 12, Seed: 9}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Mem().Memset(p, 'A', 64); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	// Write through the stale pointer into canary-armed freed space.
	if err := h.Mem().Store64(p+8, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	// A heap-check barrier catches it without waiting for reuse.
	if n := h.Detector().HeapCheck(); n != 1 {
		t.Fatalf("HeapCheck found %d new records, want 1", n)
	}
	evs := evidenceOf(h.Detector().Report(), KindDangling)
	if len(evs) != 1 {
		t.Fatalf("got %d dangling records, want 1: %+v", len(evs), evs)
	}
	ev := evs[0]
	if ev.Audit != AuditHeapCheck || ev.Object != p || ev.Addr != p+8 || ev.AllocSite != 0 {
		t.Errorf("evidence = %+v, want heapcheck damage at %#x blaming site 0", ev, p+8)
	}
	// The barrier re-armed the canary: a second check is quiet.
	if n := h.Detector().HeapCheck(); n != 0 {
		t.Fatalf("second HeapCheck found %d records, want 0", n)
	}

	// Damage again and let slot reuse catch it this time.
	if err := h.Mem().Store64(p+16, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ { // churn until the slot is reallocated
		q, err := h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if q == p {
			break
		}
		if err := h.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	evs = evidenceOf(h.Detector().Report(), KindDangling)
	found := false
	for _, ev := range evs {
		if ev.Audit == AuditReuse && ev.Addr == p+16 {
			found = true
		}
	}
	if !found {
		t.Fatalf("reuse audit missed the dangling write: %+v", evs)
	}
}

func TestUninitReadDetectedOnLoad(t *testing.T) {
	h := newDetectHeap(t, 3)
	mem := h.Memory()
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Load64(p + 8); err != nil { // never written
		t.Fatal(err)
	}
	evs := evidenceOf(h.Detector().Report(), KindUninit)
	if len(evs) != 1 {
		t.Fatalf("got %d uninit records, want 1: %+v", len(evs), evs)
	}
	if ev := evs[0]; ev.Addr != p+8 || ev.AllocSite != 0 || ev.Audit != AuditLoad || ev.Span != 8 {
		t.Errorf("evidence = %+v, want load-audit at %#x blaming site 0", ev, p+8)
	}
	// Re-reading the same address reports once.
	if _, err := mem.Load64(p + 8); err != nil {
		t.Fatal(err)
	}
	if got := len(evidenceOf(h.Detector().Report(), KindUninit)); got != 1 {
		t.Fatalf("duplicate uninit evidence: %d records", got)
	}
	// Initialized data does not trip the check.
	q, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Store64(q, 0x1234); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Load64(q); err != nil {
		t.Fatal(err)
	}
	if got := len(evidenceOf(h.Detector().Report(), KindUninit)); got != 1 {
		t.Fatalf("initialized read reported as uninit: %d records", got)
	}
}

func TestUninitReadOfRecycledSlot(t *testing.T) {
	// A recycled slot must look exactly like virgin memory: the reuse
	// path re-arms the canary, so uninitialized reads of recycled
	// allocations are detected too (the DieFast property).
	h, err := New(core.Options{HeapSize: 12 << 12, Seed: 21}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := h.Memory()
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first owner uninitialized too: the dedup must be per
	// owner, not per address, so the recycled read below still reports.
	if _, err := mem.Load64(p); err != nil {
		t.Fatal(err)
	}
	if err := mem.Memset(p, 0xEE, 64); err != nil { // dirty it
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	var q heap.Ptr
	for i := 0; i < 5000; i++ {
		q, err = h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if q == p {
			break
		}
		if err := h.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	if q != p {
		t.Skip("slot not recycled within the churn budget")
	}
	if _, err := mem.Load64(q); err != nil {
		t.Fatal(err)
	}
	if got := len(evidenceOf(h.Detector().Report(), KindUninit)); got != 2 {
		t.Fatalf("recycled uninit read: %d records, want 2 (one per owner)", got)
	}
}

func TestHeapCheckFullCatchesStrayWriteInVirginSpace(t *testing.T) {
	h := newDetectHeap(t, 17)
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// A wild write far past the object, into never-allocated space.
	stray := p + 64*10
	// Virgin space reads as the canary pattern, aligned to absolute
	// addresses, at every offset of the page it lands on.
	page := make([]byte, vmem.PageSize)
	pageBase := stray &^ (vmem.PageSize - 1)
	dirty := h.Mem().Stats().PagesDirty
	if err := h.Mem().ReadBytes(pageBase, page); err != nil {
		t.Fatal(err)
	}
	if got := h.Mem().Stats().PagesDirty; got != dirty+1 {
		t.Fatalf("reading the stray's page dirtied %d pages, want 1 fresh page", got-dirty)
	}
	for i, b := range page {
		if want := h.Detector().pat[(pageBase+heap.Ptr(i))&7]; b != want {
			t.Fatalf("fresh page byte at %#x = %#x, want canary %#x", pageBase+heap.Ptr(i), b, want)
		}
	}
	if err := h.Mem().Store64(stray, 0xBAD); err != nil {
		t.Fatal(err)
	}
	if n := h.Detector().HeapCheck(); n != 0 {
		t.Fatalf("plain HeapCheck should not see virgin space, found %d", n)
	}
	if n := h.Detector().HeapCheckFull(); n == 0 {
		t.Fatal("HeapCheckFull missed the stray write")
	}
	var hit *Evidence
	for i, ev := range h.Detector().Report().Evidence {
		if ev.Addr == stray {
			hit = &h.Detector().Report().Evidence[i]
		}
	}
	if hit == nil {
		t.Fatalf("no evidence at %#x: %+v", stray, h.Detector().Report().Evidence)
	}
	// Virgin space had no former owner to name.
	if hit.Kind != KindDangling || hit.AllocSite != -1 || hit.Audit != AuditHeapCheck {
		t.Errorf("stray evidence %+v, want a heap-check dangling write naming no site", *hit)
	}
	// The sweep re-armed the canary: a second full check is quiet.
	if n := h.Detector().HeapCheckFull(); n != 0 {
		t.Fatalf("second HeapCheckFull found %d records, want 0", n)
	}
}

func TestAutomaticHeapCheckBarrier(t *testing.T) {
	h, err := New(core.Options{HeapSize: 12 << 20, Seed: 5}, Options{HeapCheckEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Mem().Store64(p, 0xF00D); err != nil { // dangling write
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // cross the every-10 barrier
		q, err := h.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	r := h.Detector().Report()
	if r.Checks == 0 {
		t.Fatal("no automatic heap check ran")
	}
	if len(evidenceOf(r, KindDangling)) == 0 {
		t.Fatal("automatic barrier missed the dangling write")
	}
}

// TestAdaptiveHeapCheckCadence: with HeapCheckMin set, a barrier that
// follows fresh evidence tightens the cadence to the floor, and clean
// barrier intervals double it back toward HeapCheckEvery.
func TestAdaptiveHeapCheckCadence(t *testing.T) {
	h, err := New(core.Options{HeapSize: 12 << 20, Seed: 5},
		Options{HeapCheckEvery: 16, HeapCheckMin: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Detector().Cadence(); got != 16 {
		t.Fatalf("initial cadence %d, want HeapCheckEvery", got)
	}
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Mem().Store64(p, 0xF00D); err != nil { // dangling write
		t.Fatal(err)
	}
	churn := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			q, err := h.Malloc(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Free(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(16) // cross the first barrier with the evidence on the books
	if got := h.Detector().Cadence(); got != 2 {
		t.Fatalf("cadence after evidence = %d, want floor 2", got)
	}
	// Clean intervals: exponential backoff 2 -> 4 -> 8 -> 16, capped.
	churn(64)
	if got := h.Detector().Cadence(); got != 16 {
		t.Fatalf("cadence after clean churn = %d, want back at HeapCheckEvery", got)
	}
	// The tightened stretch ran MORE barriers than the fixed schedule
	// would have over the same clock span.
	if checks := h.Detector().Report().Checks; checks <= 80/16 {
		t.Fatalf("only %d checks over ~80 allocations; cadence never tightened", checks)
	}
}

// TestFixedCadenceUnchanged: HeapCheckMin = 0 preserves the exact PR-4
// modulo schedule — one barrier per HeapCheckEvery allocations, evidence
// or not — so recorded golden output hashes cannot move.
func TestFixedCadenceUnchanged(t *testing.T) {
	h, err := New(core.Options{HeapSize: 12 << 20, Seed: 5}, Options{HeapCheckEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		q, err := h.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	if checks := h.Detector().Report().Checks; checks != 3 {
		t.Fatalf("%d barriers over 35 allocations, want exactly 3 (clock 10, 20, 30)", checks)
	}
	if got := h.Detector().Cadence(); got != 10 {
		t.Fatalf("fixed cadence drifted to %d", got)
	}
}

// TestHeapCheckMinValidation pins the option's rejection surface.
func TestHeapCheckMinValidation(t *testing.T) {
	if _, err := New(core.Options{HeapSize: 12 << 20}, Options{HeapCheckMin: -1}); err == nil {
		t.Error("negative HeapCheckMin accepted")
	}
	if _, err := New(core.Options{HeapSize: 12 << 20}, Options{HeapCheckEvery: 8, HeapCheckMin: 9}); err == nil {
		t.Error("HeapCheckMin above HeapCheckEvery accepted")
	}
	if _, err := New(core.Options{HeapSize: 12 << 20}, Options{HeapCheckMin: 4}); err == nil {
		// A floor without a ceiling has no schedule to adapt.
		t.Error("HeapCheckMin without HeapCheckEvery accepted")
	}
}

func TestLargeObjectLifecycle(t *testing.T) {
	h := newDetectHeap(t, 13)
	p, err := h.Malloc(core.MaxObjectSize + 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Mem().Memset(p, 1, core.MaxObjectSize+1000); err != nil {
		t.Fatal(err)
	}
	h.Detector().HeapCheck() // audits the large slack while live
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	h.Detector().HeapCheck()
	if r := h.Detector().Report(); len(r.Evidence) != 0 {
		t.Fatalf("clean large-object lifecycle produced evidence: %+v", r.Evidence)
	}
}

// TestLargeObjectOverflowCaughtAtFree closes the PR-4 gap: an overflow
// into a large object's trailing-page slack is audited at free — core
// fires OnFree before the guarded mapping is unmapped — not only at
// heap-check barriers while the object lives. The overflow is planned
// (fault.PlanOverflow), so the culprit allocation site is known ground
// truth and the evidence must name it exactly.
func TestLargeObjectOverflowCaughtAtFree(t *testing.T) {
	const largeReq = core.MaxObjectSize + 1000
	// The program: a few small warm-up objects, then one large object
	// written at its full intended size, then freed.
	program := func(alloc heap.Allocator, mem heap.Memory) error {
		for i := 0; i < 4; i++ {
			p, err := alloc.Malloc(64)
			if err != nil {
				return err
			}
			if err := mem.Memset(p, 'a', 64); err != nil {
				return err
			}
			if err := alloc.Free(p); err != nil {
				return err
			}
		}
		p, err := alloc.Malloc(largeReq)
		if err != nil {
			return err
		}
		if err := mem.Memset(p, 'L', largeReq); err != nil {
			return err
		}
		return alloc.Free(p)
	}

	// Trace run: record the allocation log the plan draws from.
	th, err := core.New(core.Options{HeapSize: 12 << 20, Seed: 0xACE})
	if err != nil {
		t.Fatal(err)
	}
	tracer := fault.NewTracer(th)
	if err := program(tracer, th.Mem()); err != nil {
		t.Fatal(err)
	}
	// Only the large allocation is eligible: the plan's victim set is
	// exactly it, which makes the expected culprit site unambiguous.
	plan := fault.PlanOverflow(tracer.Trace(), 1, core.MaxObjectSize+1, 8, 0xBEEF)
	victims := plan.Victims()
	if len(victims) != 1 || victims[0] != 4 {
		t.Fatalf("planned victims = %v, want exactly the large allocation (site 4)", victims)
	}

	// Injection run: the under-allocated large object's full-size write
	// runs 8 bytes into the trailing-page slack.
	dh := newDetectHeap(t, 77)
	inj := fault.NewPlannedOverflowInjector(dh, plan)
	if err := program(inj, dh.Mem()); err != nil {
		t.Fatal(err)
	}
	evs := evidenceOf(dh.Detector().Report(), KindOverflow)
	if len(evs) != 1 {
		t.Fatalf("got %d overflow evidence records, want 1: %+v", len(evs), evs)
	}
	ev := evs[0]
	if ev.Audit != AuditFree {
		t.Errorf("audit point = %s, want %s (caught at free, no barrier ran)", ev.Audit, AuditFree)
	}
	if ev.AllocSite != victims[0] {
		t.Errorf("culprit site = %d, want planned victim %d", ev.AllocSite, victims[0])
	}
	if ev.Span != plan.Delta {
		t.Errorf("damage span = %d, want the injected %d bytes", ev.Span, plan.Delta)
	}
}

func TestDetectorDeterministicForSeed(t *testing.T) {
	run := func() *Report {
		h := newDetectHeap(t, 1234)
		mem := h.Memory()
		var ptrs []heap.Ptr
		for i := 0; i < 150; i++ {
			size := 24 + (i*13)%40
			p, err := h.Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			if i != 37 { // one uninitialized object
				if err := mem.Memset(p, byte(i), size); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := mem.Load64(p); err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
			if i%2 == 1 {
				victim := ptrs[i-1]
				if victim != 0 {
					if err := mem.Memset(victim, 0xCC, 70); err != nil { // overflowing write
						t.Fatal(err)
					}
					if err := h.Free(victim); err != nil {
						t.Fatal(err)
					}
					ptrs[i-1] = 0
				}
			}
		}
		h.Detector().HeapCheck()
		return h.Detector().Report()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seed and program produced different reports")
	}
	if len(a.Evidence) == 0 {
		t.Fatal("workload with injected errors produced no evidence")
	}
}

// TestCanaryFillerWritesEveryByte holds the canary page filler to the
// vmem contract (vmem Space.SetPageFiller): it writes every byte of its
// page, so a pooled frame it fills needs no clearing first. Two
// identically seeded fillers run over pages poisoned 0x00 and 0xFF must
// produce equal bytes.
func TestCanaryFillerWritesEveryByte(t *testing.T) {
	zeros := newDetectHeap(t, 7).Mem().PageFiller()
	ones := newDetectHeap(t, 7).Mem().PageFiller()
	for page := 0; page < 3; page++ {
		a := make([]byte, vmem.PageSize)
		b := bytes.Repeat([]byte{0xFF}, vmem.PageSize)
		zeros(a)
		ones(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("page %d byte %d: %#x over 0x00, %#x over 0xFF: the filler skipped it", page, i, a[i], b[i])
			}
		}
	}
}

// TestCanaryComparatorMatchesByteLoop holds the canary writer and
// comparator to the byte loops they replaced: pattern writes
// pat[(at+i)&7] at every offset, and damage returns the first and the
// last byte where b differs from that. audit, refill and rangeIsCanary
// run the two in place through the page walk, so they are checked on
// the heap too: every start phase, lengths up to three pages that cross
// page boundaries, damage at the first byte, the last byte, a byte of
// the ragged end and a byte holding another phase's canary, then random
// damage.
func TestCanaryComparatorMatchesByteLoop(t *testing.T) {
	h := newDetectHeap(t, 11)
	d := h.Detector()
	base, err := h.Malloc(4 * vmem.PageSize) // four page-aligned canary pages
	if err != nil {
		t.Fatal(err)
	}
	byteLoop := func(at heap.Ptr, b []byte) (first, last int) {
		first, last = -1, -1
		for i := range b {
			if b[i] != d.pat[(at+heap.Ptr(i))&7] {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		return first, last
	}
	type hit struct {
		off int
		v   byte
	}
	check := func(at heap.Ptr, n int, hits []hit) {
		t.Helper()
		want := make([]byte, n)
		for i := range want {
			want[i] = d.pat[(at+heap.Ptr(i))&7]
		}
		b := make([]byte, n)
		d.pattern(at, b)
		if !bytes.Equal(b, want) {
			t.Fatalf("pattern(%#x, %d) differs from the byte loop", at, n)
		}
		for _, x := range hits {
			b[x.off] = x.v
		}
		wf, wl := byteLoop(at, b)
		if f, l := d.damage(at, b); f != wf || l != wl {
			t.Fatalf("damage(%#x, %d) with %v = (%d, %d), byte loop (%d, %d)", at, n, hits, f, l, wf, wl)
		}
		// In place: re-arm, damage through the raw space, audit.
		d.refill(at, n)
		mem := make([]byte, n)
		if err := d.space.ReadBytes(at, mem); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mem, want) {
			t.Fatalf("refill(%#x, %d) differs from the byte loop", at, n)
		}
		for _, x := range hits {
			if err := d.space.Store8(at+heap.Ptr(x.off), x.v); err != nil {
				t.Fatal(err)
			}
		}
		first, span, ok := d.audit(at, n)
		if ok != (wf >= 0) || (ok && (first != wf || span != wl-wf+1)) {
			t.Fatalf("audit(%#x, %d) with %v = (%d, %d, %v), byte loop first %d last %d", at, n, hits, first, span, ok, wf, wl)
		}
		if got := d.rangeIsCanary(at, n); got != (wf < 0) {
			t.Fatalf("rangeIsCanary(%#x, %d) with %v = %v", at, n, hits, got)
		}
		d.refill(at, n)
	}
	r := rng.NewSeeded(5)
	for phase := 0; phase < 8; phase++ {
		// 24 bytes before a page boundary, so longer ranges cross one or
		// more boundaries.
		at := base + vmem.PageSize - 24 + heap.Ptr(phase)
		for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 23, 24, 25, 63, vmem.PageSize - 1, vmem.PageSize, vmem.PageSize + 5, 2*vmem.PageSize + 13, 3 * vmem.PageSize} {
			check(at, n, nil)
			if n == 0 {
				continue
			}
			canary := func(off int) byte { return d.pat[(at+heap.Ptr(off))&7] }
			check(at, n, []hit{{0, ^canary(0)}})
			check(at, n, []hit{{n - 1, ^canary(n - 1)}})
			ragged := n &^ 7
			if ragged == n {
				ragged = n - 1
			}
			check(at, n, []hit{{ragged, canary(ragged) + 1}})
			// A byte holding another phase's canary byte is damage too.
			for k := 1; k < 8; k++ {
				if other := canary(n/2 + k); other != canary(n/2) {
					check(at, n, []hit{{n / 2, other}})
					break
				}
			}
			check(at, n, []hit{{0, ^canary(0)}, {n - 1, ^canary(n - 1)}})
		}
	}
	for i := 0; i < 300; i++ {
		at := base + heap.Ptr(r.Intn(vmem.PageSize))
		n := 1 + r.Intn(3*vmem.PageSize)
		hits := make([]hit, r.Intn(4))
		for j := range hits {
			hits[j] = hit{r.Intn(n), byte(r.Next())}
		}
		check(at, n, hits)
	}
}

func TestRejectsConcurrentAndRandomFill(t *testing.T) {
	if _, err := New(core.Options{Concurrent: true}, Options{}); err == nil {
		t.Error("Concurrent accepted")
	}
	if _, err := New(core.Options{RandomFill: true}, Options{}); err == nil {
		t.Error("RandomFill accepted")
	}
}

func TestEvidenceCap(t *testing.T) {
	const slack = 8 // overflows past the cap
	h, err := New(core.Options{HeapSize: 12 << 20, Seed: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxEvidence+slack; i++ {
		p, err := h.Malloc(56)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Mem().Memset(p, 'Z', 60); err != nil {
			t.Fatal(err)
		}
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	r := h.Detector().Report()
	if len(r.Evidence) != maxEvidence || r.Dropped != slack {
		t.Fatalf("cap: %d records, %d dropped; want %d and %d", len(r.Evidence), r.Dropped, maxEvidence, slack)
	}
}

// BenchmarkDetectPair prices the generation tier over the canary tier:
// one steady-state free+malloc pair of 48 B requests on a detection
// heap whose 64 B class is filled to its 1/M threshold, so each free
// audits 16 bytes of slack. canary runs Free/Malloc: a slack audit and
// a canary re-arm per free, an audit on reuse per malloc. gentag runs
// the same churn through FreeFat/MallocFat on a GenTags heap, which
// adds the generation CAS on free, the tag bump on claim and the
// side-array read that validates the fat pointer. CI's perf canary
// prints both, ungated.
func BenchmarkDetectPair(b *testing.B) {
	for _, gen := range []bool{false, true} {
		name := "canary"
		if gen {
			name = "gentag"
		}
		b.Run(name, func(b *testing.B) {
			h, err := New(core.Options{HeapSize: 48 << 20, Seed: 1, GenTags: gen}, Options{})
			if err != nil {
				b.Fatal(err)
			}
			malloc := func() (heap.FatPtr, error) {
				p, err := h.Malloc(48)
				return heap.FatPtr{Addr: p}, err
			}
			free := func(fp heap.FatPtr) error { return h.Free(fp.Addr) }
			if gen {
				malloc = func() (heap.FatPtr, error) { return h.MallocFat(48) }
				free = func(fp heap.FatPtr) error {
					if ok, err := h.FreeFat(fp); err != nil || !ok {
						return fmt.Errorf("live fat pointer %+v rejected: %v", fp, err)
					}
					return nil
				}
			}
			_, maxInUse := h.ClassSlots(core.ClassFor(48))
			live := make([]heap.FatPtr, maxInUse)
			for i := range live {
				if live[i], err = malloc(); err != nil {
					b.Fatal(err)
				}
			}
			r := rng.NewSeeded(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := r.Intn(len(live))
				if err := free(live[j]); err != nil {
					b.Fatal(err)
				}
				if live[j], err = malloc(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageFill prices the canary page filler: one 4 KB page per op
// over a ring of 256 frames.
func BenchmarkPageFill(b *testing.B) {
	b.Run("canary", func(b *testing.B) {
		fill := newDetectHeap(b, 1).Mem().PageFiller()
		ring := make([]byte, 256*vmem.PageSize)
		b.SetBytes(vmem.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := i % 256 * vmem.PageSize
			fill(ring[off : off+vmem.PageSize])
		}
	})
}

// BenchmarkCanaryAudit prices the in-place audit of one intact page per
// op, over a ring of 64 canary pages.
func BenchmarkCanaryAudit(b *testing.B) {
	h := newDetectHeap(b, 1)
	base, err := h.Malloc(64 * vmem.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	d := h.Detector()
	b.SetBytes(vmem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, damaged := d.audit(base+heap.Ptr(i%64*vmem.PageSize), vmem.PageSize); damaged {
			b.Fatal("intact canary page reported damaged")
		}
	}
}
