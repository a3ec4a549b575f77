package vmem

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// leaves counts the page-table leaves the space has allocated.
func (s *Space) leaves() int {
	n := 0
	dir := *s.dir.Load()
	for i := range dir {
		if dir[i].Load() != nil {
			n++
		}
	}
	return n
}

func TestMapAndAccess(t *testing.T) {
	s := NewSpace()
	base, err := s.Map(2*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store64(base, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load64(base)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafef00d {
		t.Fatalf("round trip got %#x", v)
	}
}

func TestNullIsUnmapped(t *testing.T) {
	s := NewSpace()
	if _, err := s.Load8(0); err == nil {
		t.Fatal("load of address 0 should fault")
	}
	var f *Fault
	_, err := s.Load8(0)
	if !errors.As(err, &f) {
		t.Fatalf("expected *Fault, got %T", err)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(PageSize, ProtRW)
	// The page after the hole after the mapping is unmapped.
	if err := s.Store8(base+2*PageSize, 1); err == nil {
		t.Fatal("store past mapping should fault")
	}
	if s.Stats().Faults == 0 {
		t.Fatal("fault counter not incremented")
	}
}

func TestMappingsNotAdjacent(t *testing.T) {
	s := NewSpace()
	a, _ := s.Map(PageSize, ProtRW)
	b, _ := s.Map(PageSize, ProtRW)
	if b == a+PageSize {
		t.Fatal("mappings are adjacent; overflow from one would silently hit the next")
	}
	if err := s.Store8(a+PageSize, 7); err == nil {
		t.Fatal("store into the hole between mappings should fault")
	}
}

func TestGuardPages(t *testing.T) {
	s := NewSpace()
	base, err := s.MapGuarded(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store8(base, 1); err != nil {
		t.Fatalf("usable region should be writable: %v", err)
	}
	if err := s.Store8(base-1, 1); err == nil {
		t.Fatal("write into leading guard page should fault")
	}
	if err := s.Store8(base+PageSize, 1); err == nil {
		t.Fatal("write into trailing guard page should fault")
	}
	var f *Fault
	err = s.Store8(base-1, 1)
	if !errors.As(err, &f) || f.Reason != "guard page" {
		t.Fatalf("expected guard page fault, got %v", err)
	}
	// Mapped reads the extents: guard pages and untouched pages are
	// mapped, the holes around each mapping are not.
	untouched, err := s.MapGuarded(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		addr   uint64
		mapped bool
	}{
		{"touched", base, true},
		{"untouched", untouched + 99, true},
		{"leading guard", base - PageSize, true},
		{"trailing guard", base + PageSize, true},
		{"hole after mapping", base + 2*PageSize, false},
		{"null guard region", base - 2*PageSize, false},
	} {
		if got := s.Mapped(c.addr); got != c.mapped {
			t.Errorf("%s: Mapped(%#x) = %v, want %v", c.name, c.addr, got, c.mapped)
		}
	}
}

func TestProtectReadOnly(t *testing.T) {
	// The page is touched before the Protect (its PTE is rewritten) or
	// only after it (its PTE is filled from the extent on first touch):
	// either way loads see the contents and stores fault alike.
	for _, touched := range []bool{true, false} {
		s := NewSpace()
		base, _ := s.Map(PageSize, ProtRW)
		want := byte(0)
		if touched {
			want = 42
			if err := s.Store8(base, want); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Protect(base, PageSize, ProtRead); err != nil {
			t.Fatal(err)
		}
		if v, err := s.Load8(base); err != nil || v != want {
			t.Fatalf("touched=%v: read of read-only page = %#x, %v; want %#x", touched, v, err, want)
		}
		var f *Fault
		if err := s.Store8(base, 1); !errors.As(err, &f) || f.Reason != "protection violation" {
			t.Fatalf("touched=%v: write to read-only page: %v, want a protection violation", touched, err)
		}
	}
}

func TestUnmapThenAccessFaults(t *testing.T) {
	// The range is partly touched, or never touched at all (no PTE was
	// ever filled): either way the unmapped pages fault.
	for _, touched := range []bool{true, false} {
		s := NewSpace()
		base, _ := s.Map(2*PageSize, ProtRW)
		if touched {
			if err := s.Store8(base, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Unmap(base, 2*PageSize); err != nil {
			t.Fatal(err)
		}
		for _, addr := range []uint64{base, base + PageSize} {
			var f *Fault
			if _, err := s.Load8(addr); !errors.As(err, &f) || f.Reason != "unmapped address" {
				t.Fatalf("touched=%v: access at %#x after unmap: %v", touched, addr, err)
			}
		}
		if st := s.Stats(); st.PagesMapped != 0 || st.PagesDirty != 0 {
			t.Fatalf("touched=%v: PagesMapped = %d, PagesDirty = %d after full unmap", touched, st.PagesMapped, st.PagesDirty)
		}
	}
}

func TestUnmapErrors(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(PageSize, ProtRW)
	if err := s.Unmap(base+1, PageSize); err == nil {
		t.Fatal("unaligned unmap should fail")
	}
	if err := s.Unmap(base+4*PageSize, PageSize); err == nil {
		t.Fatal("unmap of unmapped range should fail")
	}
	// Partial overlap: nothing should be unmapped.
	if err := s.Unmap(base, 2*PageSize); err == nil {
		t.Fatal("unmap extending past mapping should fail")
	}
	if _, err := s.Load8(base); err != nil {
		t.Fatalf("failed unmap must not tear down pages: %v", err)
	}
}

func TestCrossPageAccesses(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(2*PageSize, ProtRW)
	addr := base + PageSize - 3 // 64-bit value straddles the boundary
	if err := s.Store64(addr, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Fatalf("cross-page round trip got %#x", v)
	}
	if err := s.Store32(base+PageSize-2, 0xaabbccdd); err != nil {
		t.Fatal(err)
	}
	v32, err := s.Load32(base + PageSize - 2)
	if err != nil {
		t.Fatal(err)
	}
	if v32 != 0xaabbccdd {
		t.Fatalf("cross-page 32-bit round trip got %#x", v32)
	}
}

func TestReadWriteBytes(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(3*PageSize, ProtRW)
	msg := bytes.Repeat([]byte("abcdefgh"), 1000) // spans pages
	if err := s.WriteBytes(base+100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := s.ReadBytes(base+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("ReadBytes did not return what WriteBytes stored")
	}
}

func TestMemset(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(2*PageSize, ProtRW)
	if err := s.Memset(base+10, 0xAB, 5000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5000)
	if err := s.ReadBytes(base+10, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xAB", i, b)
		}
	}
}

func TestMemMoveOverlap(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(PageSize, ProtRW)
	if err := s.WriteBytes(base, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := s.MemMove(base+2, base, 8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	_ = s.ReadBytes(base, got)
	if string(got) != "0101234567" {
		t.Fatalf("overlapping MemMove got %q", got)
	}
}

func TestLazyInstantiation(t *testing.T) {
	// Reserve a large region (256 pages, and the paper's 384 MB heap);
	// it should cost nothing until touched: no frames, and no page-table
	// leaves either. The space itself costs what it maps and touches: an
	// empty space allocates no directory, and the first touch allocates
	// one leaf and a small first slab, not a whole 1 MB one.
	const spaces = 16
	leafBytes := uint64(unsafe.Sizeof(leaf{}))
	// perSpace returns the bytes op allocates per space, averaged over
	// the spaces so that an allocation by another goroutine of the test
	// binary cannot push one measurement over its bound.
	perSpace := func(op func(i int) error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < spaces; i++ {
			if err := op(i); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / spaces
	}
	for _, size := range []int{1 << 20, 384 << 20} {
		ss := make([]*Space, spaces)
		bases := make([]uint64, spaces)
		if grew := perSpace(func(i int) error { ss[i] = NewSpace(); return nil }); grew >= 4<<10 {
			t.Fatalf("NewSpace allocated %d bytes, want < 4 KB", grew)
		}
		if grew := perSpace(func(i int) (err error) { bases[i], err = ss[i].Map(size, ProtRW); return err }); grew >= leafBytes {
			t.Fatalf("untouched %d-byte mapping allocated %d bytes (a leaf is %d)", size, grew, leafBytes)
		}
		for _, s := range ss {
			if n := s.leaves(); n != 0 {
				t.Fatalf("untouched %d-byte mapping allocated %d leaves", size, n)
			}
			if s.Stats().PagesDirty != 0 {
				t.Fatalf("untouched mapping instantiated %d pages", s.Stats().PagesDirty)
			}
		}
		if grew := perSpace(func(i int) error { return ss[i].Store8(bases[i]+5*PageSize, 1) }); grew >= leafBytes+64<<10 {
			t.Fatalf("first touch allocated %d bytes, want < a leaf (%d) + 64 KB", grew, leafBytes)
		}
		for _, s := range ss {
			if s.Stats().PagesDirty != 1 || s.leaves() != 1 {
				t.Fatalf("one touch should dirty one page in one leaf, got %d pages, %d leaves", s.Stats().PagesDirty, s.leaves())
			}
		}
	}
}

func TestFreshPagesAreZero(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(PageSize, ProtRW)
	v, err := s.Load64(base + 128)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("fresh page contained %#x", v)
	}
}

func TestTLBSimulation(t *testing.T) {
	s := NewSpace()
	s.EnableTLB()
	base, _ := s.Map(256*PageSize, ProtRW)

	// Touch one page repeatedly: 1 miss, then hits.
	for i := 0; i < 100; i++ {
		if err := s.Store8(base, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.TLBMisses != 1 || st.TLBHits != 99 {
		t.Fatalf("expected 1 miss/99 hits, got %d/%d", st.TLBMisses, st.TLBHits)
	}

	// Touch more distinct pages than TLB entries (disjoint from the page
	// above): with FIFO replacement every revisit misses.
	before := st.TLBMisses
	for round := 0; round < 2; round++ {
		for p := 64; p < 192; p++ {
			if err := s.Store8(base+uint64(p)*PageSize, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	misses := s.Stats().TLBMisses - before
	if misses != 256 {
		t.Fatalf("FIFO TLB over 128 pages x2 rounds should miss every time, got %d/256", misses)
	}
}

func TestTLBLocalityBeatsSpread(t *testing.T) {
	// The mechanism behind the paper's 300.twolf observation: the same
	// number of accesses spread over many pages misses far more.
	dense := NewSpace()
	dense.EnableTLB()
	db, _ := dense.Map(512*PageSize, ProtRW)
	sparse := NewSpace()
	sparse.EnableTLB()
	sb, _ := sparse.Map(512*PageSize, ProtRW)

	for i := 0; i < 10000; i++ {
		_ = dense.Store8(db+uint64(i%(8*PageSize)), 1)                 // 8 pages
		_ = sparse.Store8(sb+uint64((i*PageSize+i)%(512*PageSize)), 1) // all pages
	}
	if dense.Stats().TLBMisses >= sparse.Stats().TLBMisses {
		t.Fatalf("dense (%d misses) should beat sparse (%d misses)",
			dense.Stats().TLBMisses, sparse.Stats().TLBMisses)
	}
}

func TestAccessCounters(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(PageSize, ProtRW)
	_ = s.Store64(base, 1)
	_, _ = s.Load64(base)
	_ = s.Store8(base, 1)
	st := s.Stats()
	if st.Stores != 2 || st.Loads != 1 {
		t.Fatalf("counters loads=%d stores=%d", st.Loads, st.Stores)
	}
	if st.Accesses() != 3 {
		t.Fatalf("Accesses() = %d", st.Accesses())
	}
}

func TestPeakPages(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(4*PageSize, ProtRW)
	if err := s.Unmap(base, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	_, _ = s.Map(PageSize, ProtRW)
	if s.Stats().PagesPeak != 4 {
		t.Fatalf("peak = %d, want 4", s.Stats().PagesPeak)
	}
}

func TestMapRejectsBadSizes(t *testing.T) {
	s := NewSpace()
	if _, err := s.Map(0, ProtRW); err == nil {
		t.Fatal("Map(0) should fail")
	}
	if _, err := s.Map(-5, ProtRW); err == nil {
		t.Fatal("Map(-5) should fail")
	}
	if _, err := s.MapGuarded(0); err == nil {
		t.Fatal("MapGuarded(0) should fail")
	}
	// The whole 64 GB above the null guard region maps (its pages come
	// into being only when touched), its last word, in the directory's
	// top leaf, is usable, and past it the space is exhausted.
	n := int(maxAddr - s.next - PageSize)
	base, err := s.Map(n, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	last := base + uint64(n) - 8
	if last>>(pageShift+leafBits) != dirSlots-1 {
		t.Fatalf("last word %#x is not in the top leaf", last)
	}
	if err := s.Store64(last, 0xFEED); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Load64(last); err != nil || v != 0xFEED {
		t.Fatalf("last word = %#x, %v", v, err)
	}
	if _, err := s.Map(PageSize, ProtRW); err == nil || !strings.Contains(err.Error(), "address space exhausted") {
		t.Fatalf("Map past the top: %v, want address space exhausted", err)
	}
}

// BenchmarkNewSpaceFirstTouch is the space shape of a detection campaign
// trial: a fresh space maps 1 MB and touches 32 scattered pages.
func BenchmarkNewSpaceFirstTouch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSpace()
		base, err := s.Map(1<<20, ProtRW)
		if err != nil {
			b.Fatal(err)
		}
		for p := uint64(0); p < 32; p++ {
			// 37 is odd, so the 32 pages are distinct among the 256.
			if err := s.Store64(base+(p*37%256)*PageSize, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestQuickStoreLoadRoundTrip(t *testing.T) {
	s := NewSpace()
	// Every uint16 offset plus the 8 bytes stored there lies inside the
	// mapping: 16 pages alone would end 7 bytes short of offset 0xffff.
	base, _ := s.Map(1<<16+8, ProtRW)
	f := func(off uint16, v uint64) bool {
		addr := base + uint64(off)
		if err := s.Store64(addr, v); err != nil {
			return false
		}
		got, err := s.Load64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWriteReadBytes(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(64*PageSize, ProtRW)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := base + uint64(off)
		if err := s.WriteBytes(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := s.ReadBytes(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStore64(b *testing.B) {
	s := NewSpace()
	base, _ := s.Map(1<<20, ProtRW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Store64(base+uint64(i%(1<<19)), uint64(i))
	}
}

// BenchmarkLoad64Strided touches a different page on every access, the
// pattern of a randomized allocator: page-translation cost cannot hide
// behind single-page locality here.
func BenchmarkLoad64Strided(b *testing.B) {
	s := NewSpace()
	base, _ := s.Map(1024*PageSize, ProtRW)
	// Touch every page once so instantiation is off the clock.
	for p := 0; p < 1024; p++ {
		_ = s.Store64(base+uint64(p)*PageSize, uint64(p))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Load64(base + uint64(i%1024)*PageSize + uint64(i%512)*8)
	}
}

// BenchmarkStore64Strided is the store-side page-per-access pattern.
func BenchmarkStore64Strided(b *testing.B) {
	s := NewSpace()
	base, _ := s.Map(1024*PageSize, ProtRW)
	for p := 0; p < 1024; p++ {
		_ = s.Store64(base+uint64(p)*PageSize, uint64(p))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Store64(base+uint64(i%1024)*PageSize+uint64(i%512)*8, uint64(i))
	}
}

// BenchmarkReadBytesPage measures bulk throughput: one page per read.
func BenchmarkReadBytesPage(b *testing.B) {
	s := NewSpace()
	base, _ := s.Map(256*PageSize, ProtRW)
	buf := make([]byte, PageSize)
	_ = s.Memset(base, 0xEE, 256*PageSize)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.ReadBytes(base+uint64(i%255)*PageSize+128, buf)
	}
}

func BenchmarkStore64TLB(b *testing.B) {
	s := NewSpace()
	s.EnableTLB()
	base, _ := s.Map(1<<20, ProtRW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Store64(base+uint64(i%(1<<19)), uint64(i))
	}
}

func TestProtectMiddleOfMapping(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(6*PageSize, ProtRW)
	// Guard the middle two pages; the flanks stay writable.
	if err := s.Protect(base+2*PageSize, 2*PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	if err := s.Store8(base, 1); err != nil {
		t.Fatalf("left flank: %v", err)
	}
	if err := s.Store8(base+5*PageSize, 1); err != nil {
		t.Fatalf("right flank: %v", err)
	}
	// The middle was guarded before its first touch: the fault reason
	// comes from the extent, as for a guard page.
	var f *Fault
	if err := s.Store8(base+3*PageSize, 1); !errors.As(err, &f) || f.Reason != "guard page" {
		t.Fatalf("guarded middle: %v, want a guard page fault", err)
	}
	// Re-open the middle.
	if err := s.Protect(base+2*PageSize, 2*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Store8(base+3*PageSize, 1); err != nil {
		t.Fatalf("reopened middle: %v", err)
	}
}

func TestUnmapMiddleOfMapping(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(5*PageSize, ProtRW)
	if err := s.Store8(base+2*PageSize, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Unmap(base+2*PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load8(base + 2*PageSize); err == nil {
		t.Fatal("unmapped middle page accessible")
	}
	if err := s.Store8(base+PageSize, 1); err != nil {
		t.Fatalf("page before hole: %v", err)
	}
	if err := s.Store8(base+3*PageSize, 1); err != nil {
		t.Fatalf("page after hole: %v", err)
	}
	if s.Stats().PagesMapped != 4 {
		t.Fatalf("PagesMapped = %d, want 4", s.Stats().PagesMapped)
	}
}

func TestPageFiller(t *testing.T) {
	s := NewSpace()
	n := byte(0)
	s.SetPageFiller(func(b []byte) {
		for i := range b {
			b[i] = 0xC0 | n&0xF
		}
		n++
	})
	base, _ := s.Map(4*PageSize, ProtRW)
	v, err := s.Load8(base + 2*PageSize + 17)
	if err != nil {
		t.Fatal(err)
	}
	if v&0xF0 != 0xC0 {
		t.Fatalf("filler not applied: %#x", v)
	}
	// The filler only runs on first instantiation: writes persist.
	if err := s.Store8(base, 0x11); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Load8(base)
	if got != 0x11 {
		t.Fatalf("write lost: %#x", got)
	}
	// Clearing the filler restores zero-fill for new pages.
	s.SetPageFiller(nil)
	base2, _ := s.Map(PageSize, ProtRW)
	got, _ = s.Load8(base2)
	if got != 0 {
		t.Fatalf("nil filler should zero-fill: %#x", got)
	}
}

func TestTLBSecondLevelCounters(t *testing.T) {
	s := NewSpace()
	s.EnableTLB()
	base, _ := s.Map(100*PageSize, ProtRW)
	// First pass over 100 pages: every access is a cold walk.
	for p := 0; p < 100; p++ {
		_ = s.Store8(base+uint64(p)*PageSize, 1)
	}
	st := s.Stats()
	if st.TLB2Misses != 100 || st.TLBMisses != 100 {
		t.Fatalf("cold pass: L1=%d L2=%d", st.TLBMisses, st.TLB2Misses)
	}
	// Second pass: 100 pages exceed the 64-entry L1 (all miss) but fit
	// the second level (no cold walks).
	for p := 0; p < 100; p++ {
		_ = s.Store8(base+uint64(p)*PageSize, 1)
	}
	st = s.Stats()
	if st.TLB2Misses != 100 {
		t.Fatalf("warm pass caused cold walks: %d", st.TLB2Misses)
	}
	if st.TLBMisses != 200 {
		t.Fatalf("warm pass should still miss L1: %d", st.TLBMisses)
	}
}

// --- Radix page-table edge cases: the semantics the rewrite must
// preserve (ISSUE 1 satellite tests) ---

func TestCrossPageStore32RoundTrip(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(2*PageSize, ProtRW)
	for _, off := range []uint64{PageSize - 1, PageSize - 2, PageSize - 3} {
		addr := base + off
		if err := s.Store32(addr, 0x89abcdef); err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		v, err := s.Load32(addr)
		if err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		if v != 0x89abcdef {
			t.Fatalf("off %d: got %#x", off, v)
		}
	}
}

func TestCrossPageAccessIntoGuardFaults(t *testing.T) {
	s := NewSpace()
	base, err := s.MapGuarded(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// A 64-bit access starting 4 bytes before the trailing guard page
	// straddles into it and must fault.
	var f *Fault
	if _, err := s.Load64(base + PageSize - 4); !errors.As(err, &f) {
		t.Fatalf("cross-page load into guard: got %v", err)
	}
	if err := s.Store64(base+PageSize-4, 1); !errors.As(err, &f) {
		t.Fatalf("cross-page store into guard: got %v", err)
	}
	// The same access fully inside the region is fine.
	if _, err := s.Load64(base + PageSize - 8); err != nil {
		t.Fatal(err)
	}
}

func TestFaultExactlyAtGuardBoundaries(t *testing.T) {
	s := NewSpace()
	base, err := s.MapGuarded(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Last byte before the leading guard boundary / first byte of the
	// usable region / last usable byte / first byte of the trailing
	// guard.
	var f *Fault
	if err := s.Store8(base-1, 1); !errors.As(err, &f) || f.Reason != "guard page" {
		t.Fatalf("store at base-1: %v", err)
	}
	if err := s.Store8(base, 1); err != nil {
		t.Fatalf("store at base: %v", err)
	}
	if err := s.Store8(base+2*PageSize-1, 1); err != nil {
		t.Fatalf("store at last usable byte: %v", err)
	}
	if err := s.Store8(base+2*PageSize, 1); !errors.As(err, &f) || f.Reason != "guard page" {
		t.Fatalf("store at first guard byte: %v", err)
	}
}

func TestProtectVisibleThroughPageTable(t *testing.T) {
	// Downgrade an already-instantiated page to read-only, or to no
	// access at all: the next access must see the new protection (no
	// stale translation), and the page keeps its contents across it.
	for _, down := range []Prot{ProtRead, ProtNone} {
		s := NewSpace()
		base, _ := s.Map(PageSize, ProtRW)
		if err := s.Store64(base, 0x1234); err != nil {
			t.Fatal(err)
		}
		if err := s.Protect(base, PageSize, down); err != nil {
			t.Fatal(err)
		}
		if err := s.Store8(base, 1); err == nil {
			t.Fatalf("%v: store through stale translation after Protect", down)
		}
		v, err := s.Load64(base)
		if down == ProtNone {
			var f *Fault
			if !errors.As(err, &f) || f.Reason != "guard page" {
				t.Fatalf("load through stale translation after Protect(---): %v", err)
			}
		} else if err != nil || v != 0x1234 {
			t.Fatalf("read-only page lost data: %v %#x", err, v)
		}
		// Re-upgrade: data still there, stores work again.
		if err := s.Protect(base, PageSize, ProtRW); err != nil {
			t.Fatal(err)
		}
		if v, err := s.Load64(base); err != nil || v != 0x1234 {
			t.Fatalf("%v: re-opened page lost data: %v %#x", down, err, v)
		}
		if err := s.Store8(base, 9); err != nil {
			t.Fatal(err)
		}
		if s.Stats().PagesDirty != 1 {
			t.Fatalf("%v: PagesDirty = %d, want 1", down, s.Stats().PagesDirty)
		}
	}
}

func TestUnmapInvalidatesAndRecycledFramesAreZero(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(4*PageSize, ProtRW)
	if err := s.Memset(base, 0xAA, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Unmap(base, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load8(base); err == nil {
		t.Fatal("access through stale translation after Unmap")
	}
	// A new mapping that reuses the recycled frames must observe zeroed
	// memory, not the previous mapping's contents.
	b2, _ := s.Map(4*PageSize, ProtRW)
	for p := uint64(0); p < 4; p++ {
		v, err := s.Load64(b2 + p*PageSize + 64)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 {
			t.Fatalf("recycled frame leaked old contents: %#x", v)
		}
	}
}

func TestFindByte(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(3*PageSize, ProtRW)
	// Pattern crossing a page boundary: target on the second page.
	if err := s.Memset(base, 'x', 2*PageSize); err != nil {
		t.Fatal(err)
	}
	target := base + PageSize + 123
	if err := s.Store8(target, 0); err != nil {
		t.Fatal(err)
	}
	idx, found, err := s.FindByte(base, 0, 3*PageSize)
	if err != nil || !found {
		t.Fatalf("FindByte: %v found=%v", err, found)
	}
	if uint64(idx) != target-base {
		t.Fatalf("idx = %d, want %d", idx, target-base)
	}
	// Limit smaller than the distance: not found, no error.
	if _, found, err := s.FindByte(base, 0, 10); err != nil || found {
		t.Fatalf("limited scan: %v found=%v", err, found)
	}
	// First byte matches.
	if idx, found, _ := s.FindByte(target, 0, 10); !found || idx != 0 {
		t.Fatalf("match at offset 0: idx=%d found=%v", idx, found)
	}
}

func TestFindByteFaultsLikeByteLoop(t *testing.T) {
	s := NewSpace()
	base, err := s.MapGuarded(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Memset(base, 'x', PageSize); err != nil {
		t.Fatal(err)
	}
	// No terminator before the guard page: the scan must fault there,
	// exactly as a Load8 loop would.
	var f *Fault
	if _, _, err := s.FindByte(base, 0, 4*PageSize); !errors.As(err, &f) {
		t.Fatalf("unterminated scan: %v", err)
	}
	// With the match before the guard, the guard must not be touched.
	if err := s.Store8(base+PageSize-1, 0); err != nil {
		t.Fatal(err)
	}
	idx, found, err := s.FindByte(base, 0, 4*PageSize)
	if err != nil || !found || idx != PageSize-1 {
		t.Fatalf("match before guard: idx=%d found=%v err=%v", idx, found, err)
	}
}

func TestMemMoveDirectNonOverlapping(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(8*PageSize, ProtRW)
	msg := bytes.Repeat([]byte("0123456789abcdef"), 600) // 9600B, spans pages
	if err := s.WriteBytes(base+17, msg); err != nil {
		t.Fatal(err)
	}
	// Forward copy to a page-misaligned destination.
	dst := base + 4*PageSize + 913
	if err := s.MemMove(dst, base+17, len(msg)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := s.ReadBytes(dst, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("direct copy to %#x corrupted data", dst)
	}
	// dst < src non-overlap.
	if err := s.MemMove(base+1000, dst, len(msg)); err != nil {
		t.Fatal(err)
	}
	_ = s.ReadBytes(base+1000, got)
	if !bytes.Equal(got, msg) {
		t.Fatal("backward-direction direct copy corrupted data")
	}
}

func TestMemMoveOverlapBothDirections(t *testing.T) {
	s := NewSpace()
	base, _ := s.Map(2*PageSize, ProtRW)
	seed := []byte("abcdefghij")
	// dst > src overlap.
	_ = s.WriteBytes(base, seed)
	if err := s.MemMove(base+3, base, 7); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	_ = s.ReadBytes(base, got)
	if string(got) != "abcabcdefg" {
		t.Fatalf("dst>src overlap got %q", got)
	}
	// dst < src overlap.
	_ = s.WriteBytes(base, seed)
	if err := s.MemMove(base, base+3, 7); err != nil {
		t.Fatal(err)
	}
	_ = s.ReadBytes(base, got)
	if string(got) != "defghijhij" {
		t.Fatalf("dst<src overlap got %q", got)
	}
}

func TestAccessHookChainsWithTLB(t *testing.T) {
	s := NewSpace()
	var hookPages []uint64
	s.AddAccessHook(func(pn uint64) { hookPages = append(hookPages, pn) })
	s.EnableTLB()
	base, _ := s.Map(2*PageSize, ProtRW)
	_ = s.Store8(base, 1)
	_ = s.Store8(base+PageSize, 1)
	_ = s.Store8(base, 1)
	if len(hookPages) != 3 {
		t.Fatalf("hook saw %d accesses, want 3", len(hookPages))
	}
	st := s.Stats()
	if st.TLBMisses != 2 || st.TLBHits != 1 {
		t.Fatalf("TLB alongside custom hook: misses=%d hits=%d", st.TLBMisses, st.TLBHits)
	}
}

func TestPageFillerInvocationCounts(t *testing.T) {
	s := NewSpace()
	calls := 0
	s.SetPageFiller(func(b []byte) {
		calls++
		for i := range b {
			b[i] = 0x5A
		}
	})
	base, _ := s.Map(8*PageSize, ProtRW)
	// Touching three distinct pages fires the filler exactly three
	// times; re-touching fires nothing.
	for _, p := range []uint64{0, 3, 7, 0, 3, 7} {
		if _, err := s.Load8(base + p*PageSize + 11); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Fatalf("filler ran %d times, want 3", calls)
	}
	if s.Stats().PagesDirty != 3 {
		t.Fatalf("PagesDirty = %d, want 3", s.Stats().PagesDirty)
	}
	// A bulk write spanning two fresh pages fires it twice more.
	if err := s.Memset(base+4*PageSize, 1, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("filler ran %d times after bulk touch, want 5", calls)
	}
}
