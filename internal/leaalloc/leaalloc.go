// Package leaalloc implements a Lea-style (dlmalloc/GNU libc) memory
// allocator over simulated memory: boundary tags adjacent to payloads,
// segregated free-list bins threaded through the free chunks themselves,
// and coalescing of neighbors.
//
// This is the paper's primary baseline ("malloc" in Figure 5, "GNU libc"
// in Table 1), and it is implemented to be faithfully corruptible: the
// 8-byte chunk header sits immediately before each payload, and free
// chunks carry their list links and size footer in user-reachable memory.
// A one-byte overflow really smashes the next chunk's boundary tag; a
// double free really threads a chunk into a bin twice; a dangling write
// really corrupts whatever chunk reuses the memory. The allocator
// detects blatant inconsistencies the way glibc's assertions do — by
// failing with a heap-corruption error, the moral equivalent of
// "malloc(): corrupted size" followed by abort — and otherwise behaves
// as undefined as the original.
package leaalloc

import (
	"fmt"
	"math/bits"

	"diehard/internal/heap"
	"diehard/internal/vmem"
)

const (
	headerSize = 8
	// minChunk holds header + fd + bk + footer.
	minChunk = 32
	// flagInUse marks the chunk itself allocated.
	flagInUse = 1
	// flagPrevInUse marks the physically preceding chunk allocated.
	flagPrevInUse = 2
	flagMask      = 7
	// numBins segregates free chunks by size.
	numBins = 64
	// walkCap bounds free-list walks; a longer walk means the list has
	// been corrupted into a cycle (e.g. by a double free), which the
	// real allocator would eventually crash on too.
	walkCap = 100000
)

// DefaultHeapSize matches the budget given to DieHard in the paper's
// experiments so baselines and DieHard manage the same arena size.
const DefaultHeapSize = 384 << 20

// Options configures the allocator.
type Options struct {
	// HeapSize is the arena size; defaults to DefaultHeapSize.
	HeapSize int
	// EnableTLB turns on TLB simulation in the underlying address space.
	EnableTLB bool
}

// Heap is a Lea-style allocator instance. Not safe for concurrent use.
type Heap struct {
	space      *vmem.Space
	arenaStart uint64
	arenaEnd   uint64
	top        uint64 // wilderness pointer: first never-carved byte
	topPrev    bool   // is the chunk physically below top in use?
	bins       [numBins]heap.Ptr
	stats      heap.Stats
}

var _ heap.Allocator = (*Heap)(nil)

// New creates a Lea-style heap.
func New(opts Options) (*Heap, error) {
	size := opts.HeapSize
	if size == 0 {
		size = DefaultHeapSize
	}
	if size < 16*vmem.PageSize {
		return nil, fmt.Errorf("leaalloc: heap size %d too small", size)
	}
	space := vmem.NewSpace()
	if opts.EnableTLB {
		space.EnableTLB()
	}
	base, err := space.Map(size, vmem.ProtRW)
	if err != nil {
		return nil, err
	}
	return &Heap{
		space:      space,
		arenaStart: base,
		arenaEnd:   base + uint64(size),
		top:        base,
		topPrev:    true,
	}, nil
}

func align8(n int) int { return (n + 7) &^ 7 }

// binIndex buckets chunk sizes: exact 8-byte bins below 512 bytes, then
// logarithmic bins, like dlmalloc's small/large split.
func binIndex(size int) int {
	if size < 512 {
		return size >> 4 // 32..511 -> bins 2..31
	}
	i := 26 + bits.Len(uint(size))
	if i >= numBins {
		i = numBins - 1
	}
	return i
}

// chunk header helpers; every access goes through simulated memory, so
// smashed tags are read back as smashed.

func (h *Heap) readHeader(c uint64) (size int, inUse, prevInUse bool, err error) {
	v, err := h.space.Load64(c)
	if err != nil {
		return 0, false, false, err
	}
	h.stats.WorkUnits += heap.WorkHeader
	return int(v &^ flagMask), v&flagInUse != 0, v&flagPrevInUse != 0, nil
}

func (h *Heap) writeHeader(c uint64, size int, inUse, prevInUse bool) error {
	v := uint64(size)
	if inUse {
		v |= flagInUse
	}
	if prevInUse {
		v |= flagPrevInUse
	}
	h.stats.WorkUnits += heap.WorkHeader
	return h.space.Store64(c, v)
}

// validChunk applies the sanity conditions glibc asserts on: alignment,
// plausible size, and containment in the arena.
func (h *Heap) validChunk(c uint64, size int) bool {
	return c >= h.arenaStart && c%8 == 0 &&
		size >= minChunk && size%8 == 0 &&
		c+uint64(size) <= h.top
}

// Malloc allocates size bytes: first fit from the segregated bins, then
// the wilderness.
func (h *Heap) Malloc(size int) (heap.Ptr, error) {
	if size < 0 {
		h.stats.FailedMallocs++
		return heap.Null, fmt.Errorf("leaalloc: negative allocation size %d", size)
	}
	need := align8(size + headerSize)
	if need < minChunk {
		need = minChunk
	}
	for b := binIndex(need); b < numBins; b++ {
		c, csize, err := h.searchBin(b, need)
		if err != nil {
			h.stats.FailedMallocs++
			return heap.Null, err
		}
		if c != 0 {
			p, err := h.carveChunk(c, csize, need)
			if err != nil {
				h.stats.FailedMallocs++
				return heap.Null, err
			}
			heap.CountMallocs(&h.stats, 1, uint64(size), uint64(need-headerSize))
			return p, nil
		}
	}
	// Wilderness.
	if h.top+uint64(need) > h.arenaEnd {
		h.stats.FailedMallocs++
		return heap.Null, heap.ErrOutOfMemory
	}
	c := h.top
	if err := h.writeHeader(c, need, true, h.topPrev); err != nil {
		return heap.Null, err
	}
	h.top += uint64(need)
	h.topPrev = true
	heap.CountMallocs(&h.stats, 1, uint64(size), uint64(need-headerSize))
	return c + headerSize, nil
}

// searchBin walks bin b for the first chunk of at least need bytes and
// unlinks it. Returns chunk 0 when the bin has no fit.
func (h *Heap) searchBin(b, need int) (c uint64, size int, err error) {
	cur := h.bins[b]
	for steps := 0; cur != 0; steps++ {
		if steps > walkCap {
			return 0, 0, &heap.CorruptionError{Detail: "leaalloc: free list cycle"}
		}
		h.stats.WorkUnits += heap.WorkFreelistStep
		csize, inUse, _, err := h.readHeader(cur)
		if err != nil {
			return 0, 0, err
		}
		if inUse || !h.validChunk(cur, csize) {
			// A free-list entry that claims to be in use or has an
			// absurd size means the heap has been smashed.
			return 0, 0, &heap.CorruptionError{Detail: "leaalloc: corrupted chunk on free list"}
		}
		if csize >= need {
			if err := h.unlink(b, cur); err != nil {
				return 0, 0, err
			}
			return cur, csize, nil
		}
		cur, err = h.space.Load64(cur + 8) // fd
		if err != nil {
			return 0, 0, err
		}
	}
	return 0, 0, nil
}

// unlink removes chunk c from bin b using the fd/bk links stored inside
// the chunk — the classic dlmalloc unlink, writes and all. Corrupted
// links produce writes through corrupted addresses, exactly the behavior
// heap exploits rely on.
func (h *Heap) unlink(b int, c uint64) error {
	fd, err := h.space.Load64(c + 8)
	if err != nil {
		return err
	}
	bk, err := h.space.Load64(c + 16)
	if err != nil {
		return err
	}
	h.stats.WorkUnits += 2 * heap.WorkFreelistStep
	if bk == 0 {
		h.bins[b] = fd
	} else if err := h.space.Store64(bk+8, fd); err != nil {
		return err
	}
	if fd != 0 {
		if err := h.space.Store64(fd+16, bk); err != nil {
			return err
		}
	}
	return nil
}

// linkIn pushes free chunk c of the given size onto its bin and writes
// the in-chunk metadata: fd, bk, and the size footer used for backward
// coalescing.
func (h *Heap) linkIn(c uint64, size int) error {
	b := binIndex(size)
	head := h.bins[b]
	if err := h.space.Store64(c+8, head); err != nil { // fd
		return err
	}
	if err := h.space.Store64(c+16, 0); err != nil { // bk
		return err
	}
	if head != 0 {
		if err := h.space.Store64(head+16, c); err != nil {
			return err
		}
	}
	if err := h.space.Store64(c+uint64(size)-8, uint64(size)); err != nil { // footer
		return err
	}
	h.stats.WorkUnits += 3 * heap.WorkFreelistStep
	h.bins[b] = c
	return nil
}

// carveChunk turns free chunk c (csize bytes) into an allocated chunk of
// need bytes, splitting off the remainder when it is large enough.
func (h *Heap) carveChunk(c uint64, csize, need int) (heap.Ptr, error) {
	_, _, prevInUse, err := h.readHeader(c)
	if err != nil {
		return heap.Null, err
	}
	if csize-need >= minChunk {
		rem := c + uint64(need)
		if err := h.writeHeader(rem, csize-need, false, true); err != nil {
			return heap.Null, err
		}
		if err := h.linkIn(rem, csize-need); err != nil {
			return heap.Null, err
		}
		if err := h.writeHeader(c, need, true, prevInUse); err != nil {
			return heap.Null, err
		}
		return c + headerSize, nil
	}
	if err := h.writeHeader(c, csize, true, prevInUse); err != nil {
		return heap.Null, err
	}
	if err := h.setNextPrevInUse(c, csize, true); err != nil {
		return heap.Null, err
	}
	return c + headerSize, nil
}

// setNextPrevInUse updates the prev-in-use flag of the chunk physically
// after (c, size), when such a chunk exists.
func (h *Heap) setNextPrevInUse(c uint64, size int, inUse bool) error {
	next := c + uint64(size)
	if next >= h.top {
		if next == h.top {
			h.topPrev = inUse
		}
		return nil
	}
	v, err := h.space.Load64(next)
	if err != nil {
		return err
	}
	if inUse {
		v |= flagPrevInUse
	} else {
		v &^= flagPrevInUse
	}
	h.stats.WorkUnits += heap.WorkHeader
	return h.space.Store64(next, v)
}

// Free releases the chunk at p, coalescing with free neighbors. Like the
// real allocator it trusts the boundary tags it reads back: smashed tags
// lead to corruption errors (the analogue of glibc's abort) or to silent
// mis-linking, and a double free threads the chunk into its bin twice.
func (h *Heap) Free(p heap.Ptr) error {
	if p == heap.Null {
		return nil
	}
	c := p - headerSize
	size, inUse, prevInUse, err := h.readHeader(c)
	if err != nil {
		return err
	}
	if !h.validChunk(c, size) {
		return &heap.CorruptionError{Detail: "leaalloc: free of invalid pointer"}
	}
	if !inUse {
		// Double free: old dlmalloc did not detect this. The chunk is
		// threaded into a bin a second time, producing the classic
		// duplicated-allocation corruption downstream.
		h.stats.Frees++
		return h.linkIn(c, size)
	}

	heap.CountFrees(&h.stats, 1, uint64(size-headerSize))

	// Coalesce backward.
	if !prevInUse {
		footer, err := h.space.Load64(c - 8)
		if err != nil {
			return err
		}
		psize := int(footer &^ flagMask)
		prev := c - uint64(psize)
		if !h.validChunk(prev, psize) {
			return &heap.CorruptionError{Detail: "leaalloc: corrupted size vs. prev_size"}
		}
		if err := h.unlink(binIndex(psize), prev); err != nil {
			return err
		}
		_, _, prevPrev, err := h.readHeader(prev)
		if err != nil {
			return err
		}
		c, size, prevInUse = prev, size+psize, prevPrev
	}

	// Coalesce forward, merging into the wilderness when adjacent.
	next := c + uint64(size)
	if next == h.top {
		h.top = c
		h.topPrev = prevInUse
		return nil
	}
	nsize, nInUse, _, err := h.readHeader(next)
	if err != nil {
		return err
	}
	if !nInUse {
		if !h.validChunk(next, nsize) {
			return &heap.CorruptionError{Detail: "leaalloc: corrupted forward chunk"}
		}
		if err := h.unlink(binIndex(nsize), next); err != nil {
			return err
		}
		size += nsize
		if c+uint64(size) == h.top {
			h.top = c
			h.topPrev = prevInUse
			return nil
		}
	}

	if err := h.writeHeader(c, size, false, prevInUse); err != nil {
		return err
	}
	if err := h.setNextPrevInUse(c, size, false); err != nil {
		return err
	}
	return h.linkIn(c, size)
}

// SizeOf reports the payload capacity of the allocated chunk at p, as
// the boundary tag describes it.
func (h *Heap) SizeOf(p heap.Ptr) (int, bool) {
	if p < h.arenaStart+headerSize || p >= h.top {
		return 0, false
	}
	c := p - headerSize
	size, inUse, _, err := h.readHeader(c)
	if err != nil || !inUse || !h.validChunk(c, size) {
		return 0, false
	}
	return size - headerSize, true
}

// Mem returns the simulated address space backing this heap.
func (h *Heap) Mem() *vmem.Space { return h.space }

// Stats returns the allocator counters.
func (h *Heap) Stats() *heap.Stats { return &h.stats }

// Name identifies the allocator in experiment reports.
func (h *Heap) Name() string { return "libc" }

// ArenaUsed reports how many bytes of the arena have ever been carved,
// a fragmentation measure used by the space experiments.
func (h *Heap) ArenaUsed() int { return int(h.top - h.arenaStart) }
