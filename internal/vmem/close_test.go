package vmem

import (
	"errors"
	"testing"
)

// drainSlabPool empties the process-wide slab pool, so that a test knows
// which slabs the next spaces draw.
func drainSlabPool() {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	slabPool.free = [slabSizes][][]byte{}
	slabPool.held.Store(0)
}

// pooledBytes sums the slabs on the pool's free lists.
func pooledBytes() int64 {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	var n int64
	for _, free := range slabPool.free {
		for _, slab := range free {
			n += int64(len(slab))
		}
	}
	return n
}

// dirtySpace maps pages pages and writes v over every byte of them, so
// that the space's slabs go to the pool dirty when it is closed.
func dirtySpace(t *testing.T, pages int, v byte) *Space {
	t.Helper()
	s := NewSpace()
	base, err := s.Map(pages*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Memset(base, v, pages*PageSize); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUseAfterClose(t *testing.T) {
	s := NewSpace()
	base, err := s.Map(4*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Memset(base, 0xAB, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	before := s.StatsSnapshot()
	s.Close()
	if after := s.StatsSnapshot(); after != before {
		t.Fatalf("Close changed the stats: %+v, was %+v", after, before)
	}
	buf := make([]byte, 16)
	accesses := []struct {
		name string
		op   func() error
	}{
		{"Load8", func() error { _, err := s.Load8(base); return err }},
		{"Store8", func() error { return s.Store8(base, 1) }},
		{"Load32", func() error { _, err := s.Load32(base); return err }},
		{"Store32", func() error { return s.Store32(base, 1) }},
		{"Load64", func() error { _, err := s.Load64(base); return err }},
		{"Store64", func() error { return s.Store64(base, 1) }},
		{"Load64 across pages", func() error { _, err := s.Load64(base + PageSize - 4); return err }},
		{"ReadBytes", func() error { return s.ReadBytes(base, buf) }},
		{"WriteBytes", func() error { return s.WriteBytes(base, buf) }},
		{"Memset", func() error { return s.Memset(base, 0, 16) }},
		{"FindByte", func() error { _, _, err := s.FindByte(base, 0xAB, 16); return err }},
		{"MemMove", func() error { return s.MemMove(base+2*PageSize, base, 16) }},
	}
	for _, a := range accesses {
		err := a.op()
		var f *Fault
		if !errors.As(err, &f) || f.Reason != "closed space" || !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want a closed-space fault", a.name, err)
		}
	}
	mappings := []struct {
		name string
		op   func() error
	}{
		{"Map", func() error { _, err := s.Map(PageSize, ProtRW); return err }},
		{"MapGuarded", func() error { _, err := s.MapGuarded(PageSize); return err }},
		{"Unmap", func() error { return s.Unmap(base, PageSize) }},
		{"Protect", func() error { return s.Protect(base, PageSize, ProtRead) }},
	}
	for _, m := range mappings {
		if err := m.op(); err != ErrClosed {
			t.Errorf("%s after Close: %v, want ErrClosed", m.name, err)
		}
	}
	if s.Mapped(base) {
		t.Error("a closed space still reports its mapping")
	}
}

// TestDoubleClosePoolsOnce closes a space twice: its one slab must be
// pooled once, so the two spaces built next cannot share a frame.
func TestDoubleClosePoolsOnce(t *testing.T) {
	drainSlabPool()
	a := dirtySpace(t, 1, 0x77) // one first slab, 32 KB
	a.Close()
	a.Close()
	if got := pooledBytes(); got != firstSlabPages*PageSize {
		t.Fatalf("pool holds %d bytes after a double Close of one %d-byte slab", got, firstSlabPages*PageSize)
	}
	// Each space fills a first slab: one takes the pooled slab, the
	// other makes one.
	spaces := []*Space{NewSpace(), NewSpace()}
	bases := make([]uint64, len(spaces))
	for i, s := range spaces {
		bases[i], _ = s.Map(firstSlabPages*PageSize, ProtRW)
		for p := uint64(0); p < firstSlabPages; p++ {
			if err := s.Store64(bases[i]+p*PageSize, uint64(i)<<8|p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range spaces {
		for p := uint64(0); p < firstSlabPages; p++ {
			if v, err := s.Load64(bases[i] + p*PageSize); err != nil || v != uint64(i)<<8|p {
				t.Fatalf("space %d page %d reads %#x (%v): two spaces share a frame", i, p, v, err)
			}
		}
	}
}

// TestPooledFramesZeroWithoutFiller carves frames from a dirty pooled
// slab: a space without a filler must read them as zero, and a space
// with one must read only what its filler wrote.
func TestPooledFramesZeroWithoutFiller(t *testing.T) {
	for _, filled := range []bool{false, true} {
		drainSlabPool()
		dirtySpace(t, firstSlabPages, 0xAA).Close()
		s := NewSpace()
		want := byte(0)
		if filled {
			want = 0x5C
			s.SetPageFiller(func(b []byte) {
				for i := range b {
					b[i] = 0x5C
				}
			})
		}
		base, _ := s.Map(firstSlabPages*PageSize, ProtRW)
		page := make([]byte, PageSize)
		for p := uint64(0); p < firstSlabPages; p++ {
			if err := s.ReadBytes(base+p*PageSize, page); err != nil {
				t.Fatal(err)
			}
			for i, b := range page {
				if b != want {
					t.Fatalf("filler=%v: page %d byte %d reads %#x, want %#x", filled, p, i, b, want)
				}
			}
		}
		if got := pooledBytes(); got != 0 {
			t.Fatalf("filler=%v: the space left %d bytes pooled instead of taking the dirty slab", filled, got)
		}
		s.Close()
	}
}

// TestSlabPoolCap closes more spaces than the pool can hold: it keeps
// slabs up to its cap and no more, and its byte count matches its lists.
func TestSlabPoolCap(t *testing.T) {
	drainSlabPool()
	// 320 pages take the 32 KB to 512 KB slabs and one 1 MB slab: ~2 MB
	// a space, 16 MB for the eight, all made while the pool is empty.
	spaces := make([]*Space, 8)
	for i := range spaces {
		spaces[i] = dirtySpace(t, 320, byte(i+1))
	}
	for i, s := range spaces {
		s.Close()
		held, listed := slabPool.held.Load(), pooledBytes()
		if held != listed || held > slabPoolCap {
			t.Fatalf("after %d closes the pool counts %d bytes, lists %d, cap %d", i+1, held, listed, slabPoolCap)
		}
	}
	if held := slabPool.held.Load(); held < slabPoolCap-slabPages*PageSize {
		t.Fatalf("the pool kept %d of ~16 MB offered, want it filled to within a slab of %d", held, slabPoolCap)
	}
	drainSlabPool()
}
