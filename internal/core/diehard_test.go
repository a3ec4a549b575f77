package core

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"diehard/internal/heap"
	"diehard/internal/rng"
	"diehard/internal/vmem"
)

// testHeap returns a small deterministic heap suitable for unit tests:
// 12 MB total, 1 MB per class.
func testHeap(t *testing.T, opts Options) *Heap {
	t.Helper()
	if opts.HeapSize == 0 {
		opts.HeapSize = 12 << 20
	}
	if opts.Seed == 0 {
		opts.Seed = 0x5eed
	}
	h, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestMallocFreeRoundTrip(t *testing.T) {
	h := testHeap(t, Options{})
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Mem().Store64(p, 0x1234567890abcdef); err != nil {
		t.Fatal(err)
	}
	v, err := h.Mem().Load64(p)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1234567890abcdef {
		t.Fatalf("round trip got %#x", v)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Mallocs != 1 || st.Frees != 1 || st.LiveObjects != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		size, class int
	}{
		{1, 0}, {7, 0}, {8, 0}, {9, 1}, {16, 1}, {17, 2}, {32, 2},
		{33, 3}, {64, 3}, {100, 4}, {128, 4}, {129, 5}, {256, 5},
		{4096, 9}, {8192, 10}, {8193, 11}, {16384, 11},
	}
	for _, c := range cases {
		if got := ClassFor(c.size); got != c.class {
			t.Errorf("ClassFor(%d) = %d, want %d", c.size, got, c.class)
		}
		if ClassSize(c.class) < c.size {
			t.Errorf("ClassSize(%d) = %d smaller than request %d", c.class, ClassSize(c.class), c.size)
		}
	}
}

func TestMallocRoundsToClassSize(t *testing.T) {
	h := testHeap(t, Options{})
	p, err := h.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	size, ok := h.SizeOf(p)
	if !ok || size != 128 {
		t.Fatalf("SizeOf = %d,%v; want 128", size, ok)
	}
}

func TestMallocZeroAndNegative(t *testing.T) {
	h := testHeap(t, Options{})
	p, err := h.Malloc(0)
	if err != nil || p == heap.Null {
		t.Fatalf("malloc(0) = %v, %v", p, err)
	}
	if _, err := h.Malloc(-1); err == nil {
		t.Fatal("malloc(-1) should fail")
	}
}

func TestDistinctPointers(t *testing.T) {
	h := testHeap(t, Options{})
	seen := make(map[heap.Ptr]bool)
	for i := 0; i < 1000; i++ {
		p, err := h.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("pointer %#x returned twice while live", p)
		}
		seen[p] = true
	}
}

func TestOutOfMemoryAtThreshold(t *testing.T) {
	// Tiny heap: each class gets one page. Class 0 (8-byte objects) has
	// 512 slots, threshold 256 at M=2.
	h := testHeap(t, Options{HeapSize: 12 * vmem.PageSize})
	total, maxInUse := h.ClassSlots(0)
	if total != 512 || maxInUse != 256 {
		t.Fatalf("slots=%d max=%d, want 512/256", total, maxInUse)
	}
	for i := 0; i < maxInUse; i++ {
		if _, err := h.Malloc(8); err != nil {
			t.Fatalf("alloc %d failed below threshold: %v", i, err)
		}
	}
	if _, err := h.Malloc(8); !errors.Is(err, heap.ErrOutOfMemory) {
		t.Fatalf("allocation at threshold returned %v, want ErrOutOfMemory", err)
	}
	// Other classes are unaffected by class 0 exhaustion.
	if _, err := h.Malloc(16); err != nil {
		t.Fatalf("other class should still allocate: %v", err)
	}
}

func TestFreeMakesRoomAgain(t *testing.T) {
	h := testHeap(t, Options{HeapSize: 12 * vmem.PageSize})
	_, maxInUse := h.ClassSlots(0)
	ptrs := make([]heap.Ptr, 0, maxInUse)
	for i := 0; i < maxInUse; i++ {
		p, err := h.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if err := h.Free(ptrs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Malloc(8); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
}

func TestDoubleFreeIgnored(t *testing.T) {
	h := testHeap(t, Options{})
	p, _ := h.Malloc(32)
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatalf("double free must be ignored, got %v", err)
	}
	if h.Stats().IgnoredFrees != 1 {
		t.Fatalf("IgnoredFrees = %d, want 1", h.Stats().IgnoredFrees)
	}
	if h.Stats().Frees != 1 {
		t.Fatalf("Frees = %d, want 1", h.Stats().Frees)
	}
}

func TestInvalidFreeIgnored(t *testing.T) {
	h := testHeap(t, Options{})
	for _, p := range []heap.Ptr{0xdead0000, 12345} {
		if err := h.Free(p); err != nil {
			t.Fatalf("invalid free of %#x must be ignored, got %v", p, err)
		}
	}
	if h.Stats().IgnoredFrees != 2 {
		t.Fatalf("IgnoredFrees = %d, want 2", h.Stats().IgnoredFrees)
	}
}

func TestMisalignedFreeIgnored(t *testing.T) {
	h := testHeap(t, Options{})
	p, _ := h.Malloc(64)
	if err := h.Free(p + 4); err != nil {
		t.Fatalf("misaligned free must be ignored, got %v", err)
	}
	if h.Stats().IgnoredFrees != 1 {
		t.Fatal("misaligned free was not counted as ignored")
	}
	// The object must still be allocated.
	if _, ok := h.SizeOf(p); !ok {
		t.Fatal("misaligned free deallocated the object")
	}
}

func TestFreeNull(t *testing.T) {
	h := testHeap(t, Options{})
	if err := h.Free(heap.Null); err != nil {
		t.Fatalf("free(NULL) must be a no-op, got %v", err)
	}
	if h.Stats().IgnoredFrees != 0 {
		t.Fatal("free(NULL) should not count as ignored")
	}
}

func TestLargeObjectLifecycle(t *testing.T) {
	h := testHeap(t, Options{})
	p, err := h.Malloc(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if h.LargeObjects() != 1 {
		t.Fatal("large object not recorded")
	}
	if err := h.Mem().Store64(p+99_992, 7); err != nil {
		t.Fatalf("write near end of large object failed: %v", err)
	}
	size, ok := h.SizeOf(p)
	if !ok || size != 100_000 {
		t.Fatalf("SizeOf large = %d,%v", size, ok)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if h.LargeObjects() != 0 {
		t.Fatal("large object not removed on free")
	}
	if _, err := h.Mem().Load8(p); err == nil {
		t.Fatal("access to freed large object should fault")
	}
	// Second free is an invalid free and must be ignored.
	if err := h.Free(p); err != nil {
		t.Fatalf("double free of large object must be ignored: %v", err)
	}
}

func TestLargeObjectGuardPages(t *testing.T) {
	h := testHeap(t, Options{})
	p, err := h.Malloc(20_000)
	if err != nil {
		t.Fatal(err)
	}
	pages := (20_000 + vmem.PageSize - 1) / vmem.PageSize
	if err := h.Mem().Store8(p+uint64(pages*vmem.PageSize), 1); err == nil {
		t.Fatal("write past large object into guard page should fault")
	}
	if err := h.Mem().Store8(p-1, 1); err == nil {
		t.Fatal("write before large object into guard page should fault")
	}
}

func TestPartitionEndGuard(t *testing.T) {
	h := testHeap(t, Options{HeapSize: 12 * vmem.PageSize})
	total, _ := h.ClassSlots(0)
	end := h.ClassBase(0) + uint64(total*8)
	if err := h.Mem().Store8(end, 1); err == nil {
		t.Fatal("write past end of partition should hit guard page")
	}
}

func TestOverflowWithinPartitionDoesNotFault(t *testing.T) {
	// An overflow of one object width inside a partition lands on heap
	// space (live or free), never on metadata: DieHard's metadata is
	// segregated, so the write succeeds and corrupts nothing structural.
	h := testHeap(t, Options{})
	p, _ := h.Malloc(64)
	if err := h.Mem().Store64(p+64, 0xbad); err != nil {
		t.Fatalf("overflow into neighboring slot should not fault: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("metadata corrupted by heap overflow: %v", err)
	}
}

func TestRandomizedPlacement(t *testing.T) {
	a := testHeap(t, Options{Seed: 1})
	b := testHeap(t, Options{Seed: 2})
	differ := false
	for i := 0; i < 50; i++ {
		pa, _ := a.Malloc(64)
		pb, _ := b.Malloc(64)
		if pa != pb {
			differ = true
		}
	}
	if !differ {
		t.Fatal("two differently seeded heaps produced identical layouts")
	}
	// Also: consecutive allocations should not be adjacent in general.
	h := testHeap(t, Options{})
	adjacent := 0
	prev, _ := h.Malloc(64)
	for i := 0; i < 200; i++ {
		p, _ := h.Malloc(64)
		d := int64(p) - int64(prev)
		if d == 64 || d == -64 {
			adjacent++
		}
		prev = p
	}
	if adjacent > 10 {
		t.Fatalf("%d/200 consecutive allocations adjacent; layout not randomized", adjacent)
	}
}

func TestSameSeedSameLayout(t *testing.T) {
	a := testHeap(t, Options{Seed: 99})
	b := testHeap(t, Options{Seed: 99})
	for i := 0; i < 100; i++ {
		pa, _ := a.Malloc(32)
		pb, _ := b.Malloc(32)
		if pa != pb {
			t.Fatalf("same seed diverged at allocation %d", i)
		}
	}
}

func TestRandomFillDiffersAcrossReplicas(t *testing.T) {
	a := testHeap(t, Options{Seed: 1, RandomFill: true})
	b := testHeap(t, Options{Seed: 2, RandomFill: true})
	pa, _ := a.Malloc(256)
	pb, _ := b.Malloc(256)
	bufA := make([]byte, 256)
	bufB := make([]byte, 256)
	if err := a.Mem().ReadBytes(pa, bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Mem().ReadBytes(pb, bufB); err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range bufA {
		if bufA[i] == bufB[i] {
			same++
		}
	}
	if same == len(bufA) {
		t.Fatal("uninitialized object contents identical across replicas")
	}
	// And not all zero.
	zero := 0
	for _, x := range bufA {
		if x == 0 {
			zero++
		}
	}
	if zero == len(bufA) {
		t.Fatal("RandomFill left object zeroed")
	}
}

func TestStandAloneFreshMemoryIsZero(t *testing.T) {
	h := testHeap(t, Options{})
	p, _ := h.Malloc(128)
	buf := make([]byte, 128)
	if err := h.Mem().ReadBytes(p, buf); err != nil {
		t.Fatal(err)
	}
	for i, x := range buf {
		if x != 0 {
			t.Fatalf("stand-alone heap byte %d = %#x, want 0", i, x)
		}
	}
}

func TestObjectBounds(t *testing.T) {
	h := testHeap(t, Options{})
	p, _ := h.Malloc(128)
	start, size, ok := h.ObjectBounds(p + 57)
	if !ok || start != p || size != 128 {
		t.Fatalf("ObjectBounds interior = %#x,%d,%v; want %#x,128", start, size, ok, p)
	}
	if _, _, ok := h.ObjectBounds(0xdead0000); ok {
		t.Fatal("ObjectBounds of wild pointer should fail")
	}
	// Freed object: bounds no longer resolve.
	_ = h.Free(p)
	if _, _, ok := h.ObjectBounds(p); ok {
		t.Fatal("ObjectBounds of freed object should fail")
	}
	// Large object interior pointer.
	lp, _ := h.Malloc(50_000)
	start, size, ok = h.ObjectBounds(lp + 40_000)
	if !ok || start != lp || size != 50_000 {
		t.Fatalf("large ObjectBounds = %#x,%d,%v", start, size, ok)
	}
}

func TestInHeap(t *testing.T) {
	h := testHeap(t, Options{})
	p, _ := h.Malloc(64)
	if !h.InHeap(p) {
		t.Fatal("allocated pointer not recognized as in-heap")
	}
	lp, _ := h.Malloc(100_000)
	if h.InHeap(lp) {
		t.Fatal("large objects live outside the small-object heap")
	}
	if h.InHeap(0x1234) {
		t.Fatal("wild pointer reported in-heap")
	}
}

func TestAdaptiveGrowth(t *testing.T) {
	h := testHeap(t, Options{
		HeapSize:        12 << 20,
		Adaptive:        true,
		AdaptiveInitial: 64 << 10,
	})
	total0, _ := h.ClassSlots(0)
	if total0 != (64<<10)/8 {
		t.Fatalf("initial adaptive slots = %d", total0)
	}
	// Allocate past the initial threshold; the heap must grow rather
	// than fail.
	n := total0 // more than initial maxInUse = total0/2
	for i := 0; i < n; i++ {
		if _, err := h.Malloc(8); err != nil {
			t.Fatalf("adaptive heap failed at %d: %v", i, err)
		}
	}
	grown, _ := h.ClassSlots(0)
	if grown <= total0 {
		t.Fatalf("adaptive heap did not grow: %d -> %d", total0, grown)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveStopsAtCap(t *testing.T) {
	// Heap of 12 pages: cap is one page (512 slots) per class; start at
	// one page too, so growth is impossible and OOM appears at 256.
	h := testHeap(t, Options{
		HeapSize:        12 * vmem.PageSize,
		Adaptive:        true,
		AdaptiveInitial: vmem.PageSize,
	})
	allocated := 0
	for {
		if _, err := h.Malloc(8); err != nil {
			break
		}
		allocated++
		if allocated > 10000 {
			t.Fatal("adaptive heap grew past its cap")
		}
	}
	if allocated != 256 {
		t.Fatalf("capped adaptive heap allocated %d, want 256", allocated)
	}
}

func TestExpectedProbes(t *testing.T) {
	// §4.2: with the heap 1/M full, expected probes = 1/(1 - 1/M) = 2
	// for M = 2. Hold the class at its threshold and measure the probe
	// count of free/malloc pairs at that steady state.
	h := testHeap(t, Options{HeapSize: 12 * vmem.PageSize, Seed: 42})
	_, maxInUse := h.ClassSlots(0)
	ptrs := make([]heap.Ptr, maxInUse)
	for i := range ptrs {
		p, err := h.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	r := rng.NewSeeded(7)
	before := h.Stats().Probes
	const trials = 20000
	for i := 0; i < trials; i++ {
		victim := r.Intn(len(ptrs))
		if err := h.Free(ptrs[victim]); err != nil {
			t.Fatal(err)
		}
		p, err := h.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[victim] = p
	}
	mean := float64(h.Stats().Probes-before) / trials
	// At threshold the fullness alternates between 1/2 and just below,
	// so the expectation is just under 2.
	if math.Abs(mean-2.0) > 0.15 {
		t.Fatalf("mean probes %f, want about 2 (M=2)", mean)
	}
}

func TestStatsAccounting(t *testing.T) {
	h := testHeap(t, Options{})
	p1, _ := h.Malloc(100) // rounds to 128
	p2, _ := h.Malloc(8)
	st := h.Stats()
	if st.BytesRequested != 108 || st.BytesAllocated != 136 {
		t.Fatalf("requested=%d allocated=%d", st.BytesRequested, st.BytesAllocated)
	}
	if st.LiveBytes != 136 || st.PeakLiveBytes != 136 {
		t.Fatalf("live=%d peak=%d", st.LiveBytes, st.PeakLiveBytes)
	}
	_ = h.Free(p1)
	_ = h.Free(p2)
	if st.LiveBytes != 0 || st.PeakLiveBytes != 136 {
		t.Fatalf("after frees live=%d peak=%d", st.LiveBytes, st.PeakLiveBytes)
	}
}

func TestCallocZeroesReplicatedHeap(t *testing.T) {
	h := testHeap(t, Options{RandomFill: true})
	p, err := heap.Calloc(h, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := h.Mem().ReadBytes(p, buf); err != nil {
		t.Fatal(err)
	}
	for i, x := range buf {
		if x != 0 {
			t.Fatalf("calloc byte %d = %#x", i, x)
		}
	}
}

func TestReallocPreservesContents(t *testing.T) {
	h := testHeap(t, Options{})
	p, _ := h.Malloc(32)
	if err := h.Mem().WriteBytes(p, []byte("hello, diehard!!")); err != nil {
		t.Fatal(err)
	}
	np, err := heap.Realloc(h, p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if err := h.Mem().ReadBytes(np, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello, diehard!!" {
		t.Fatalf("realloc lost contents: %q", buf)
	}
	// Old object must have been freed.
	if _, ok := h.SizeOf(p); ok && p != np {
		t.Fatal("realloc did not free the old object")
	}
}

func TestInvariantsUnderRandomWorkload(t *testing.T) {
	h := testHeap(t, Options{HeapSize: 6 << 20, Seed: 123})
	r := rng.NewSeeded(321)
	live := make([]heap.Ptr, 0, 1024)
	for op := 0; op < 20000; op++ {
		switch {
		case len(live) > 0 && r.Intn(100) < 45:
			i := r.Intn(len(live))
			if err := h.Free(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case r.Intn(100) < 3: // occasional invalid/double free
			_ = h.Free(heap.Ptr(r.Next64()))
		default:
			size := 1 << uint(r.Intn(15)) // 1..16K
			p, err := h.Malloc(size)
			if errors.Is(err, heap.ErrOutOfMemory) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		}
		if op%2500 == 0 {
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := New(Options{M: 1.0}); err == nil {
		t.Fatal("M = 1 must be rejected")
	}
	if _, err := New(Options{M: 0.5}); err == nil {
		t.Fatal("M < 1 must be rejected")
	}
	if _, err := New(Options{HeapSize: 100}); err == nil {
		t.Fatal("tiny heap must be rejected")
	}
}

func TestName(t *testing.T) {
	if testHeap(t, Options{}).Name() != "diehard" {
		t.Fatal("stand-alone name")
	}
	if testHeap(t, Options{RandomFill: true}).Name() != "diehard-r" {
		t.Fatal("replicated name")
	}
}

func BenchmarkMalloc64(b *testing.B) {
	h, err := New(Options{HeapSize: 48 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ptrs := make([]heap.Ptr, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := h.Malloc(64)
		if err != nil {
			// Recycle when the class fills.
			b.StopTimer()
			for _, q := range ptrs {
				_ = h.Free(q)
			}
			ptrs = ptrs[:0]
			b.StartTimer()
			p, _ = h.Malloc(64)
		}
		ptrs = append(ptrs, p)
	}
}

func BenchmarkMallocFreePair(b *testing.B) {
	h, err := New(Options{HeapSize: 48 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := h.Malloc(64)
		_ = h.Free(p)
	}
}

// TestDifferentialModel runs a randomized operation sequence against the
// allocator and an independent reference model (a Go map of live objects
// and their contents), verifying after every step that no live object's
// data was disturbed and no two live objects overlap.
func TestDifferentialModel(t *testing.T) {
	h := testHeap(t, Options{HeapSize: 6 << 20, Seed: 0xD1F})
	r := rng.NewSeeded(0xF1D)
	type object struct {
		ptr     heap.Ptr
		size    int
		pattern byte
	}
	live := make(map[heap.Ptr]object)
	checkAll := func(op int) {
		for _, o := range live {
			b := make([]byte, o.size)
			if err := h.Mem().ReadBytes(o.ptr, b); err != nil {
				t.Fatalf("op %d: read of live object failed: %v", op, err)
			}
			for i, x := range b {
				if x != o.pattern {
					t.Fatalf("op %d: object %#x byte %d = %#x, want %#x",
						op, o.ptr, i, x, o.pattern)
				}
			}
		}
	}
	for op := 0; op < 4000; op++ {
		switch {
		case len(live) > 0 && r.Intn(100) < 40:
			// Free a random live object.
			var victim object
			n := r.Intn(len(live))
			for _, o := range live {
				if n == 0 {
					victim = o
					break
				}
				n--
			}
			if err := h.Free(victim.ptr); err != nil {
				t.Fatal(err)
			}
			delete(live, victim.ptr)
		case r.Intn(100) < 5:
			// Hostile input: double/invalid frees must be no-ops.
			_ = h.Free(heap.Ptr(r.Next64()))
			for p := range live {
				_ = h.Free(p + 4) // misaligned
				break
			}
		default:
			size := 1 + r.Intn(200)
			if r.Intn(20) == 0 {
				size = 17000 + r.Intn(30000) // large object
			}
			p, err := h.Malloc(size)
			if errors.Is(err, heap.ErrOutOfMemory) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			// Overlap check against every live object.
			for _, o := range live {
				if p < o.ptr+uint64(o.size) && o.ptr < p+uint64(size) {
					t.Fatalf("op %d: %#x+%d overlaps live %#x+%d", op, p, size, o.ptr, o.size)
				}
			}
			pat := byte(r.Next())
			if err := h.Mem().Memset(p, pat, size); err != nil {
				t.Fatal(err)
			}
			live[p] = object{ptr: p, size: size, pattern: pat}
		}
		if op%500 == 0 {
			checkAll(op)
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	checkAll(4000)
}

func TestQuickClassForProperties(t *testing.T) {
	f := func(raw uint16) bool {
		size := int(raw)
		if size == 0 {
			size = 1
		}
		if size > MaxObjectSize {
			size = MaxObjectSize
		}
		c := ClassFor(size)
		if c < 0 || c >= NumClasses {
			return false
		}
		// The class size covers the request...
		if ClassSize(c) < size {
			return false
		}
		// ...and is the smallest class that does (no waste beyond 2x).
		if c > 0 && ClassSize(c-1) >= size {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMallocFreeNeverCorrupts(t *testing.T) {
	// Property: any interleaving of mallocs and frees (valid or not)
	// leaves the metadata self-consistent.
	f := func(seed uint64, script []byte) bool {
		h, err := New(Options{HeapSize: 12 * vmem.PageSize, Seed: seed | 1})
		if err != nil {
			return false
		}
		var live []heap.Ptr
		for _, b := range script {
			switch {
			case b < 120:
				p, err := h.Malloc(1 + int(b)%64)
				if err == nil {
					live = append(live, p)
				}
			case b < 200 && len(live) > 0:
				i := int(b) % len(live)
				if h.Free(live[i]) != nil {
					return false // DieHard frees never error
				}
				live = append(live[:i], live[i+1:]...)
			default:
				_ = h.Free(heap.Ptr(b) * 977) // hostile free
			}
		}
		return h.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeObjectChurn(t *testing.T) {
	h := testHeap(t, Options{})
	var ptrs []heap.Ptr
	for round := 0; round < 20; round++ {
		for i := 0; i < 8; i++ {
			p, err := h.Malloc(17000 + i*4096)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Mem().Store64(p, uint64(round*100+i)); err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		// Free half each round.
		for i := 0; i < 4 && len(ptrs) > 0; i++ {
			if err := h.Free(ptrs[0]); err != nil {
				t.Fatal(err)
			}
			ptrs = ptrs[1:]
		}
	}
	if h.LargeObjects() != len(ptrs) {
		t.Fatalf("large object count %d != %d tracked", h.LargeObjects(), len(ptrs))
	}
	for _, p := range ptrs {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if h.LargeObjects() != 0 {
		t.Fatal("large objects leaked")
	}
}

func TestPageIndexResolvesAcrossAdaptiveGrowth(t *testing.T) {
	// The O(1) page index must keep resolving pointers from early
	// subregions after adaptive growth maps later ones, with large
	// objects interleaved in the address space between them.
	h, err := New(Options{
		HeapSize:        24 << 20,
		Adaptive:        true,
		AdaptiveInitial: vmem.PageSize,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ptrs []heap.Ptr
	var large []heap.Ptr
	for i := 0; i < 4000; i++ {
		p, err := h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
		if i%500 == 0 {
			lp, err := h.Malloc(MaxObjectSize + 1)
			if err != nil {
				t.Fatal(err)
			}
			large = append(large, lp)
		}
	}
	for _, p := range ptrs {
		if sz, ok := h.SizeOf(p); !ok || sz != 64 {
			t.Fatalf("SizeOf(%#x) = %d,%v after growth", p, sz, ok)
		}
		// Interior pointers resolve to the containing object.
		start, size, ok := h.ObjectBounds(p + 13)
		if !ok || start != p || size != 64 {
			t.Fatalf("ObjectBounds(%#x+13) = %#x,%d,%v", p, start, size, ok)
		}
	}
	for _, lp := range large {
		if sz, ok := h.SizeOf(lp); !ok || sz != MaxObjectSize+1 {
			t.Fatalf("large SizeOf = %d,%v", sz, ok)
		}
		// Large objects are not part of the small-object heap.
		if h.InHeap(lp) {
			t.Fatalf("InHeap(%#x) true for large object", lp)
		}
	}
	// Guard pages and inter-region holes resolve to nothing.
	if _, ok := h.SizeOf(h.ClassBase(0) - 1); ok {
		t.Fatal("guard-page pointer resolved to an object")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Free everything through the index; double frees must be ignored.
	for _, p := range ptrs {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	ignored := h.Stats().IgnoredFrees
	if err := h.Free(ptrs[0]); err != nil {
		t.Fatal(err)
	}
	if h.Stats().IgnoredFrees != ignored+1 {
		t.Fatal("double free after growth not detected via page index")
	}
}

// TestNewHeapConstructionCost pins what a heap with the paper's defaults
// (384 MB, M = 2) allocates before its first malloc: the class bitmaps
// (1 MB), the page index at 2 bytes a page (192 KB), and the space's
// leaf directory, sized to the mapping (a few KB). Untouched pages cost
// no page-table leaves, and the page index is built once, so beyond its
// 2 bytes a page and the directory's 8 bytes per 2 MB nothing grows
// with the reserved pages.
func TestNewHeapConstructionCost(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := New(Options{HeapSize: 384 << 20, M: 2, Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Fatalf("New(384 MB) allocated %d bytes, want <= 2 MB", grew)
	}
	if got := h.Mem().StatsSnapshot().PagesDirty; got != 0 {
		t.Fatalf("New touched %d pages", got)
	}
}

// BenchmarkNewHeap is the construction layer's series: what a heap costs
// before its first malloc. paper384MB is the Figure 5 heap (the paper's
// defaults, built once per kernel); serve2x32MB is the serve soak's
// 2-shard heap with remote-free rings.
func BenchmarkNewHeap(b *testing.B) {
	b.Run("paper384MB", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(Options{HeapSize: 384 << 20, M: 2, Seed: uint64(i) + 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serve2x32MB", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewSharded(2, Options{HeapSize: 64 << 20, Seed: uint64(i) + 1, Concurrent: true, RemoteRing: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
