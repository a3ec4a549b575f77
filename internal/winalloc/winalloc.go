// Package winalloc models the Windows XP default heap allocator used as
// the baseline of Figure 5(b): a correct but substantially slower
// allocator than the Lea allocator.
//
// The paper attributes DieHard's competitive Windows results to the
// default allocator's cost ("the default Windows XP allocator is
// substantially slower than the Lea allocator"). This model reproduces
// that property structurally: a single address-ordered first-fit free
// list walked linearly on every allocation and every free, plus a flat
// per-operation charge standing in for the heap lock and lookaside
// bookkeeping of the real thing. Metadata is boundary-tag style inside
// the heap, so it corrupts like the real allocator's.
package winalloc

import (
	"fmt"

	"diehard/internal/heap"
	"diehard/internal/vmem"
)

const (
	headerSize = 8
	minChunk   = 24 // header + next link + footer room
	flagInUse  = 1
	flagMask   = 7
	walkCap    = 1 << 20
)

// DefaultHeapSize matches the budget given to the other allocators.
const DefaultHeapSize = 384 << 20

// Options configures the allocator.
type Options struct {
	// HeapSize is the arena size; defaults to DefaultHeapSize.
	HeapSize int
	// EnableTLB turns on TLB simulation in the underlying address space.
	EnableTLB bool
}

// Heap is a Windows-XP-default-heap-style allocator. Not safe for
// concurrent use.
type Heap struct {
	space      *vmem.Space
	arenaStart uint64
	arenaEnd   uint64
	top        uint64
	freeHead   heap.Ptr // address-ordered singly linked free list
	stats      heap.Stats
}

var _ heap.Allocator = (*Heap)(nil)

// New creates a Windows-style heap.
func New(opts Options) (*Heap, error) {
	size := opts.HeapSize
	if size == 0 {
		size = DefaultHeapSize
	}
	if size < 16*vmem.PageSize {
		return nil, fmt.Errorf("winalloc: heap size %d too small", size)
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
	}, nil
}

func align8(n int) int { return (n + 7) &^ 7 }

func (h *Heap) readHeader(c uint64) (size int, inUse bool, err error) {
	v, err := h.space.Load64(c)
	if err != nil {
		return 0, false, err
	}
	h.stats.WorkUnits += heap.WorkHeader
	return int(v &^ flagMask), v&flagInUse != 0, nil
}

func (h *Heap) writeHeader(c uint64, size int, inUse bool) error {
	v := uint64(size)
	if inUse {
		v |= flagInUse
	}
	h.stats.WorkUnits += heap.WorkHeader
	return h.space.Store64(c, v)
}

func (h *Heap) valid(c uint64, size int) bool {
	return c >= h.arenaStart && c%8 == 0 && size >= minChunk && size%8 == 0 && c+uint64(size) <= h.top
}

// Malloc walks the free list first-fit, splitting oversized chunks.
func (h *Heap) Malloc(size int) (heap.Ptr, error) {
	h.stats.WorkUnits += heap.WorkLockWalk // heap lock + lookaside consult
	if size < 0 {
		h.stats.FailedMallocs++
		return heap.Null, fmt.Errorf("winalloc: negative allocation size %d", size)
	}
	need := align8(size + headerSize)
	if need < minChunk {
		need = minChunk
	}
	var prev heap.Ptr
	cur := h.freeHead
	for steps := 0; cur != 0; steps++ {
		if steps > walkCap {
			h.stats.FailedMallocs++
			return heap.Null, &heap.CorruptionError{Detail: "winalloc: free list cycle"}
		}
		h.stats.WorkUnits += heap.WorkFreelistStep
		csize, inUse, err := h.readHeader(cur)
		if err != nil {
			h.stats.FailedMallocs++
			return heap.Null, err
		}
		if inUse || !h.valid(cur, csize) {
			h.stats.FailedMallocs++
			return heap.Null, &heap.CorruptionError{Detail: "winalloc: corrupted free list entry"}
		}
		next, err := h.space.Load64(cur + 8)
		if err != nil {
			h.stats.FailedMallocs++
			return heap.Null, err
		}
		if csize >= need {
			if csize-need >= minChunk {
				rem := cur + uint64(need)
				if err := h.writeHeader(rem, csize-need, false); err != nil {
					return heap.Null, err
				}
				if err := h.space.Store64(rem+8, next); err != nil {
					return heap.Null, err
				}
				h.setNext(prev, rem)
			} else {
				need = csize
				h.setNext(prev, next)
			}
			if err := h.writeHeader(cur, need, true); err != nil {
				return heap.Null, err
			}
			heap.CountMallocs(&h.stats, 1, uint64(size), uint64(need-headerSize))
			return cur + headerSize, nil
		}
		prev, cur = cur, next
	}
	// Wilderness.
	if h.top+uint64(need) > h.arenaEnd {
		h.stats.FailedMallocs++
		return heap.Null, heap.ErrOutOfMemory
	}
	c := h.top
	if err := h.writeHeader(c, need, true); err != nil {
		return heap.Null, err
	}
	h.top += uint64(need)
	heap.CountMallocs(&h.stats, 1, uint64(size), uint64(need-headerSize))
	return c + headerSize, nil
}

// setNext updates prev's link (or the list head) to point at target.
func (h *Heap) setNext(prev, target heap.Ptr) {
	if prev == 0 {
		h.freeHead = target
		return
	}
	_ = h.space.Store64(prev+8, target)
	h.stats.WorkUnits += heap.WorkFreelistStep
}

// Free inserts the chunk into the address-ordered free list, merging
// with physically adjacent free neighbors found during the walk.
func (h *Heap) Free(p heap.Ptr) error {
	h.stats.WorkUnits += heap.WorkLockWalk
	if p == heap.Null {
		return nil
	}
	c := p - headerSize
	size, inUse, err := h.readHeader(c)
	if err != nil {
		return err
	}
	if !h.valid(c, size) {
		return &heap.CorruptionError{Detail: "winalloc: free of invalid pointer"}
	}
	if !inUse {
		// Double free: relink the chunk anyway (undefined behaviour,
		// like the original).
		h.stats.Frees++
		return h.insert(c, size)
	}
	heap.CountFrees(&h.stats, 1, uint64(size-headerSize))
	return h.insert(c, size)
}

// insert places free chunk c into the address-ordered list and coalesces
// with its list neighbors when physically adjacent.
func (h *Heap) insert(c uint64, size int) error {
	var prev heap.Ptr
	cur := h.freeHead
	for steps := 0; cur != 0 && cur < c; steps++ {
		if steps > walkCap {
			return &heap.CorruptionError{Detail: "winalloc: free list cycle"}
		}
		h.stats.WorkUnits += heap.WorkFreelistStep
		next, err := h.space.Load64(cur + 8)
		if err != nil {
			return err
		}
		prev, cur = cur, next
	}
	// Merge forward with cur.
	if cur != 0 && c+uint64(size) == cur {
		csize, _, err := h.readHeader(cur)
		if err != nil {
			return err
		}
		next, err := h.space.Load64(cur + 8)
		if err != nil {
			return err
		}
		size += csize
		cur = next
	}
	// Merge backward with prev.
	if prev != 0 {
		psize, _, err := h.readHeader(prev)
		if err != nil {
			return err
		}
		if prev+uint64(psize) == c {
			if err := h.writeHeader(prev, psize+size, false); err != nil {
				return err
			}
			return h.space.Store64(prev+8, cur)
		}
	}
	if err := h.writeHeader(c, size, false); err != nil {
		return err
	}
	if err := h.space.Store64(c+8, cur); err != nil {
		return err
	}
	h.setNext(prev, c)
	return nil
}

// SizeOf reports the payload capacity of the allocated chunk at p.
func (h *Heap) SizeOf(p heap.Ptr) (int, bool) {
	if p < h.arenaStart+headerSize || p >= h.top {
		return 0, false
	}
	size, inUse, err := h.readHeader(p - headerSize)
	if err != nil || !inUse || !h.valid(p-headerSize, size) {
		return 0, false
	}
	return size - headerSize, true
}

// Mem returns the simulated address space backing this heap.
func (h *Heap) Mem() *vmem.Space { return h.space }

// Stats returns the allocator counters.
func (h *Heap) Stats() *heap.Stats { return &h.stats }

// Name identifies the allocator in experiment reports.
func (h *Heap) Name() string { return "win-default" }
