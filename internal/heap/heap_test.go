package heap

import (
	"errors"
	"testing"

	"diehard/internal/vmem"
)

// bumpAlloc is a minimal Allocator for exercising the package helpers.
type bumpAlloc struct {
	space *vmem.Space
	next  Ptr
	end   Ptr
	sizes map[Ptr]int
	stats Stats
}

func newBump(t *testing.T) *bumpAlloc {
	t.Helper()
	s := vmem.NewSpace()
	base, err := s.Map(1<<20, vmem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	return &bumpAlloc{space: s, next: base, end: base + 1<<20, sizes: map[Ptr]int{}}
}

func (b *bumpAlloc) Malloc(size int) (Ptr, error) {
	if size < 0 {
		return Null, errors.New("negative")
	}
	if size == 0 {
		size = 1
	}
	n := Ptr((size + 7) &^ 7)
	if b.next+n > b.end {
		b.stats.FailedMallocs++
		return Null, ErrOutOfMemory
	}
	p := b.next
	b.next += n
	b.sizes[p] = size
	CountMallocs(&b.stats, 1, uint64(size), n)
	return p, nil
}

func (b *bumpAlloc) Free(p Ptr) error {
	if size, ok := b.sizes[p]; ok {
		delete(b.sizes, p)
		CountFrees(&b.stats, 1, uint64((size+7)&^7))
	}
	return nil
}

func (b *bumpAlloc) SizeOf(p Ptr) (int, bool) {
	size, ok := b.sizes[p]
	return size, ok
}

func (b *bumpAlloc) Mem() *vmem.Space { return b.space }
func (b *bumpAlloc) Stats() *Stats    { return &b.stats }
func (b *bumpAlloc) Name() string     { return "bump" }

func TestCallocZeroesAndCounts(t *testing.T) {
	a := newBump(t)
	p, err := Calloc(a, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := a.Mem().ReadBytes(p, buf); err != nil {
		t.Fatal(err)
	}
	for i, x := range buf {
		if x != 0 {
			t.Fatalf("byte %d = %#x", i, x)
		}
	}
}

func TestCallocRejectsNegativeAndOverflow(t *testing.T) {
	a := newBump(t)
	if _, err := Calloc(a, -1, 8); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := Calloc(a, 8, -1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := Calloc(a, 1<<40, 1<<40); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("multiplication overflow: %v", err)
	}
}

func TestCallocZeroTotal(t *testing.T) {
	a := newBump(t)
	p, err := Calloc(a, 0, 8)
	if err != nil || p == Null {
		t.Fatalf("calloc(0): %v %v", p, err)
	}
}

func TestReallocSemantics(t *testing.T) {
	a := newBump(t)
	// Realloc(nil, n) == malloc.
	p, err := Realloc(a, Null, 64)
	if err != nil || p == Null {
		t.Fatalf("realloc(nil): %v %v", p, err)
	}
	if err := a.Mem().Store64(p, 0xAB); err != nil {
		t.Fatal(err)
	}
	// Grow: contents preserved, old freed.
	q, err := Realloc(a, p, 256)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := a.Mem().Load64(q)
	if v != 0xAB {
		t.Fatalf("grow lost contents: %#x", v)
	}
	if _, ok := a.SizeOf(p); ok {
		t.Fatal("old object not freed")
	}
	// Shrink: prefix preserved.
	r, err := Realloc(a, q, 8)
	if err != nil {
		t.Fatal(err)
	}
	v, _ = a.Mem().Load64(r)
	if v != 0xAB {
		t.Fatalf("shrink lost contents: %#x", v)
	}
	// Realloc(p, 0) == free.
	z, err := Realloc(a, r, 0)
	if err != nil || z != Null {
		t.Fatalf("realloc(p,0): %v %v", z, err)
	}
	if _, ok := a.SizeOf(r); ok {
		t.Fatal("realloc(p,0) did not free")
	}
	// Realloc of an unknown pointer reports an invalid free.
	var inv *InvalidFreeError
	if _, err := Realloc(a, 0xdead0000, 8); !errors.As(err, &inv) {
		t.Fatalf("bogus realloc: %v", err)
	}
}

func TestCountersBalance(t *testing.T) {
	a := newBump(t)
	var ptrs []Ptr
	for i := 1; i <= 10; i++ {
		p, err := a.Malloc(i * 8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	st := a.Stats()
	if st.Mallocs != 10 || st.LiveObjects != 10 {
		t.Fatalf("%+v", st)
	}
	if st.PeakLiveBytes != st.LiveBytes {
		t.Fatalf("peak %d != live %d at high-water", st.PeakLiveBytes, st.LiveBytes)
	}
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	st = a.Stats()
	if st.LiveObjects != 0 || st.LiveBytes != 0 {
		t.Fatalf("after frees: %+v", st)
	}
	if st.PeakLiveBytes == 0 {
		t.Fatal("peak lost")
	}
}

func TestErrorClassification(t *testing.T) {
	fault := &vmem.Fault{Addr: 1, Kind: vmem.AccessLoad, Reason: "x"}
	corr := &CorruptionError{Detail: "x"}
	abort := &AbortError{Reason: "x"}
	if !IsCrash(fault) || !IsCrash(corr) {
		t.Fatal("faults and corruption are crashes")
	}
	if IsCrash(abort) || IsCrash(ErrOutOfMemory) || IsCrash(nil) {
		t.Fatal("aborts/OOM/nil are not crashes")
	}
	if !IsAbort(abort) || IsAbort(fault) || IsAbort(nil) {
		t.Fatal("abort classification wrong")
	}
	// Error strings identify their origin.
	for _, e := range []error{corr, abort, &InvalidFreeError{Addr: 0x10}} {
		if e.Error() == "" {
			t.Fatal("empty error string")
		}
	}
}

func TestCycleModel(t *testing.T) {
	s := vmem.NewSpace()
	s.EnableTLB()
	base, _ := s.Map(64*vmem.PageSize, vmem.ProtRW)
	// Warm accesses on one page: 1 L1 miss (cold: also an L2 miss).
	for i := 0; i < 100; i++ {
		_ = s.Store8(base, 1)
	}
	var st Stats
	st.WorkUnits = 7
	got := Cycles(s, &st)
	m := s.Stats()
	want := m.Accesses() + TLBWalkPenalty*m.TLB2Misses +
		TLBRefillPenalty*(m.TLBMisses-m.TLB2Misses) + 7
	if got != want {
		t.Fatalf("Cycles = %d, want %d", got, want)
	}
	if got <= 100 {
		t.Fatalf("cycle count %d implausibly low", got)
	}
}

func TestWarmMissesCheaperThanCold(t *testing.T) {
	// Accessing 128 pages repeatedly: the first round pays cold walks,
	// later rounds only warm refills (128 < L2 capacity).
	s := vmem.NewSpace()
	s.EnableTLB()
	base, _ := s.Map(256*vmem.PageSize, vmem.ProtRW)
	for round := 0; round < 10; round++ {
		for p := 0; p < 128; p++ {
			_ = s.Store8(base+uint64(p)*vmem.PageSize, 1)
		}
	}
	m := s.Stats()
	if m.TLB2Misses != 128 {
		t.Fatalf("cold walks = %d, want 128", m.TLB2Misses)
	}
	if m.TLBMisses != 10*128 {
		t.Fatalf("L1 misses = %d, want 1280", m.TLBMisses)
	}
}
