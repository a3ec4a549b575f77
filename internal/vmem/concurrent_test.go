package vmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrency tests for the lock-free access path and the serialized
// mapping operations (DESIGN.md §7). These are meaningful both as plain
// tests and, especially, under `go test -race`.

// TestConcurrentDisjointAccess drives loads and stores from many
// goroutines over disjoint page ranges of one space. Under StatsShared
// the access counters must come out exact.
func TestConcurrentDisjointAccess(t *testing.T) {
	const workers = 8
	const pagesPerWorker = 16
	const opsPerPage = 64

	s := NewSpace()
	s.SetStatsMode(StatsShared)
	base, err := s.Map(workers*pagesPerWorker*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := base + uint64(w*pagesPerWorker)*PageSize
			for p := 0; p < pagesPerWorker; p++ {
				for i := 0; i < opsPerPage; i++ {
					addr := start + uint64(p)*PageSize + uint64(i)*8
					want := uint64(w)<<32 | uint64(p)<<16 | uint64(i)
					if err := s.Store64(addr, want); err != nil {
						errs[w] = err
						return
					}
					got, err := s.Load64(addr)
					if err != nil {
						errs[w] = err
						return
					}
					if got != want {
						errs[w] = errors.New("read back wrong value")
						return
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

	const perWorker = pagesPerWorker * opsPerPage
	if got, want := s.Stats().Loads, uint64(workers*perWorker); got != want {
		t.Errorf("Loads = %d, want exactly %d under StatsShared", got, want)
	}
	if got, want := s.Stats().Stores, uint64(workers*perWorker); got != want {
		t.Errorf("Stores = %d, want exactly %d under StatsShared", got, want)
	}
	if got, want := s.Stats().PagesDirty, uint64(workers*pagesPerWorker); got != want {
		t.Errorf("PagesDirty = %d, want %d", got, want)
	}
}

// TestMapVisibilityAcrossGoroutines checks the happens-before contract:
// a mapping (and a store through it) made by one goroutine is visible to
// another goroutine that learns the address afterwards, and an unmap is
// equally visible — the later access faults.
func TestMapVisibilityAcrossGoroutines(t *testing.T) {
	s := NewSpace()
	s.SetStatsMode(StatsShared)

	type handoff struct {
		base uint64
		n    int
	}
	mapped := make(chan handoff)
	unmapped := make(chan struct{})
	done := make(chan error, 1)

	go func() {
		const n = 4 * PageSize
		base, err := s.Map(n, ProtRW)
		if err != nil {
			done <- err
			return
		}
		if err := s.Store64(base+PageSize, 0xCAFEBABE); err != nil {
			done <- err
			return
		}
		mapped <- handoff{base, n}
		<-unmapped
		// The peer unmapped the range; our next access must fault.
		if _, err := s.Load64(base + PageSize); err == nil {
			done <- errors.New("load through unmapped range succeeded")
			return
		}
		done <- nil
	}()

	h := <-mapped
	v, err := s.Load64(h.base + PageSize)
	if err != nil {
		t.Fatalf("mapped page not visible across goroutines: %v", err)
	}
	if v != 0xCAFEBABE {
		t.Fatalf("stored value not visible across goroutines: %#x", v)
	}
	if err := s.Unmap(h.base, h.n); err != nil {
		t.Fatal(err)
	}
	close(unmapped)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFirstTouch races many goroutines into the lazy
// instantiation of the same fresh pages: each page's filler must run
// exactly once, every goroutine must observe filled (not zero) contents,
// and PagesDirty must count each page once.
func TestConcurrentFirstTouch(t *testing.T) {
	const pages = 32
	const workers = 8

	s := NewSpace()
	s.SetStatsMode(StatsShared)
	var fills atomic.Uint64
	s.SetPageFiller(func(b []byte) {
		fills.Add(1)
		for i := range b {
			b[i] = 0x5A
		}
	})
	base, err := s.Map(pages*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < pages; p++ {
				// Read a worker-specific offset in the filled page.
				b, err := s.Load8(base + uint64(p)*PageSize + uint64(64+w))
				if err != nil {
					errs[w] = err
					return
				}
				if b != 0x5A {
					errs[w] = errors.New("observed unfilled page contents")
					return
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
	if got := fills.Load(); got != pages {
		t.Errorf("filler ran %d times for %d pages", got, pages)
	}
	if got := s.Stats().PagesDirty; got != pages {
		t.Errorf("PagesDirty = %d, want %d", got, pages)
	}
}

// TestConcurrentDirectoryGrowth has readers store to and load from a
// page mapped before they start while a mapper grows the space region by
// region, republishing the directory as longer copies. The mapper hands
// each region to every reader, which first-touches a page of its own in
// it: accesses through a directory copy that lacks a new leaf must fall
// to the slow path and still succeed, and every page is instantiated
// exactly once.
func TestConcurrentDirectoryGrowth(t *testing.T) {
	const readers = 4
	const regions = 128
	const regionBytes = 2 << 20

	s := NewSpace()
	s.SetStatsMode(StatsShared)
	home, err := s.Map(readers*8, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	handoff := make([]chan uint64, readers)
	for w := range handoff {
		handoff[w] = make(chan uint64, regions)
	}

	var wg sync.WaitGroup
	errs := make([]error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			check := func(addr, want uint64) error {
				if err := s.Store64(addr, want); err != nil {
					return err
				}
				got, err := s.Load64(addr)
				if err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("read %#x at %#x, stored %#x", got, addr, want)
				}
				return nil
			}
			for i := uint64(0); ; i++ {
				select {
				case base, ok := <-handoff[w]:
					if !ok {
						return
					}
					if err := check(base+uint64(w)*PageSize, base|uint64(w)); err != nil {
						errs[w] = err
						return
					}
				default:
				}
				if err := check(home+uint64(w)*8, uint64(w)<<32|i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}

	republished := 0
	var mapErr error
	for r, size := 0, len(*s.dir.Load()); r < regions; r++ {
		base, err := s.Map(regionBytes, ProtRW)
		if err != nil {
			mapErr = err
			break
		}
		if n := len(*s.dir.Load()); n != size {
			republished, size = republished+1, n
		}
		for w := range handoff {
			handoff[w] <- base
		}
	}
	for w := range handoff {
		close(handoff[w])
	}
	wg.Wait()
	if mapErr != nil {
		t.Fatal(mapErr)
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", w, err)
		}
	}
	if republished < 7 {
		t.Errorf("directory republished %d times while readers ran, want >= 7", republished)
	}
	if got, want := s.Stats().PagesDirty, uint64(1+regions*readers); got != want {
		t.Errorf("PagesDirty = %d, want %d", got, want)
	}
}

// TestConcurrentMapUnmapChurn has goroutines concurrently map, use, and
// unmap their own regions while others do the same; mapping counters
// must balance at the end.
func TestConcurrentMapUnmapChurn(t *testing.T) {
	const workers = 6
	const rounds = 40

	s := NewSpace()
	s.SetStatsMode(StatsShared)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := (1 + (w+r)%4) * PageSize
				base, err := s.Map(n, ProtRW)
				if err != nil {
					errs[w] = err
					return
				}
				if err := s.Store64(base, uint64(w)); err != nil {
					errs[w] = err
					return
				}
				if v, err := s.Load64(base); err != nil || v != uint64(w) {
					errs[w] = errors.New("region not private to its mapper")
					return
				}
				if err := s.Unmap(base, n); err != nil {
					errs[w] = err
					return
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
	st := s.Stats()
	if st.PagesMapped != 0 {
		t.Errorf("PagesMapped = %d after balanced map/unmap churn", st.PagesMapped)
	}
	if st.PagesDirty != 0 {
		t.Errorf("PagesDirty = %d after all regions unmapped", st.PagesDirty)
	}
	if st.Faults != 0 {
		t.Errorf("unexpected faults: %d", st.Faults)
	}
}

// TestConcurrentSpaceCloseHandoff has goroutines build, write, verify
// and close spaces at once, so slabs pass through the pool between
// spaces built and closed on different goroutines. A frame must read
// zero where its own space has not written (no space here has a
// filler), and every frame must read back its own space's values.
func TestConcurrentSpaceCloseHandoff(t *testing.T) {
	const workers = 4
	const rounds = 25
	const pages = 40 // the 32 KB and 64 KB slabs and part of a 128 KB one

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := NewSpace()
				base, err := s.Map(pages*PageSize, ProtRW)
				if err != nil {
					errs[w] = err
					return
				}
				tag := uint64(w)<<32 | uint64(r)<<16
				for p := uint64(0); p < pages; p++ {
					page := base + p*PageSize
					if v, err := s.Load64(page + 16); err != nil || v != 0 {
						errs[w] = fmt.Errorf("round %d page %d: fresh frame reads %#x (%v)", r, p, v, err)
						return
					}
					// Leave every byte dirty for the frame's next owner.
					if err := s.Memset(page, byte(w+1), PageSize); err != nil {
						errs[w] = err
						return
					}
					if err := s.Store64(page+8, tag|p); err != nil {
						errs[w] = err
						return
					}
				}
				for p := uint64(0); p < pages; p++ {
					if v, err := s.Load64(base + p*PageSize + 8); err != nil || v != tag|p {
						errs[w] = fmt.Errorf("round %d page %d reads %#x (%v), want %#x", r, p, v, err, tag|p)
						return
					}
				}
				s.Close()
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestStatsSharedDrain checks the striped shared-mode counters: counts
// accumulate in per-page cells and are folded into Stats on read, so
// interleaved Stats calls must never lose or double-count accesses.
func TestStatsSharedDrain(t *testing.T) {
	s := NewSpace()
	s.SetStatsMode(StatsShared)
	const pages = 3 * statsCells // several pages per cell
	base, err := s.Map(pages*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < pages; p++ {
		if err := s.Store64(base+p*PageSize, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Stores; got != pages {
		t.Fatalf("Stores after first drain = %d, want %d", got, pages)
	}
	// A second drain with no intervening accesses must be a no-op.
	if got := s.Stats().Stores; got != pages {
		t.Fatalf("Stores after idempotent drain = %d, want %d", got, pages)
	}
	for p := uint64(0); p < pages; p++ {
		if _, err := s.Load64(base + p*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Loads != pages || st.Stores != pages {
		t.Fatalf("after loads: loads=%d stores=%d, want %d each", st.Loads, st.Stores, pages)
	}
}
