// Package gcsim implements a Boehm-Demers-Weiser-style conservative
// mark-sweep collector over simulated memory, the paper's second baseline
// ("GC" in Figure 5(a), "BDW GC" in Table 1).
//
// Like the real collector used as a malloc replacement, it ignores calls
// to free entirely — which is what makes it immune to invalid frees,
// double frees, and dangling pointers — and reclaims memory by
// conservatively tracing from a root set: any word in a reachable object
// whose value looks like a pointer into the heap keeps the target object
// alive, interior pointers included.
//
// Substitution notes (DESIGN.md §1): the collector cannot scan the Go
// stack of a simulated application, so the root set is (a) explicitly
// registered roots — each evaluation workload keeps its top-level
// pointers in a "globals" object it registers, exactly as a C program's
// statics would be scanned — and (b) every object allocated since the
// previous collection, which conservatively models pointers held in
// registers and stack frames. Objects reachable from neither are
// genuinely reclaimed. Block descriptors, free lists, and mark bits live
// outside the simulated heap; a heap overflow therefore corrupts
// neighboring objects (undefined results) rather than collector state,
// matching the observable BDW row of Table 1.
package gcsim

import (
	"fmt"
	"sort"

	"diehard/internal/heap"
	"diehard/internal/vmem"
)

const (
	// blockSize is the carving granularity, one page as in BDW.
	blockSize = vmem.PageSize
	// numClasses spans 8 B .. 2 KB in powers of two; larger objects get
	// whole-block ("big") treatment.
	numClasses = 9
	// maxSmall is the largest small-object size.
	maxSmall = 8 << (numClasses - 1) // 2048
	// DefaultHeapSize matches the budget given to the other allocators.
	DefaultHeapSize = 384 << 20
	// minGCThreshold is the smallest allocation volume between
	// collections, after BDW's free-space-divisor policy (the real
	// collector starts with a small heap and collects often).
	minGCThreshold = 32 << 10
)

// Options configures the collector.
type Options struct {
	// HeapSize is the arena size; defaults to DefaultHeapSize.
	HeapSize int
	// EnableTLB turns on TLB simulation in the underlying address space.
	EnableTLB bool
}

// block is the out-of-line descriptor of one carved page.
type block struct {
	base  uint64
	class int // -1 for a multi-block ("big") object
	nobj  int
	alloc []uint64 // allocation bitmap
	mark  []uint64 // mark bitmap, valid during collection
	nblks int      // block count for big objects
}

// Heap is a conservative-GC allocation arena. Not safe for concurrent
// use.
type Heap struct {
	space      *vmem.Space
	arenaStart uint64
	arenaEnd   uint64
	brk        uint64 // next uncarved block address
	blocks     map[uint64]*block
	freeLists  [numClasses][]heap.Ptr
	freeBlocks []uint64

	roots        map[heap.Ptr]struct{}
	recent       []heap.Ptr // allocated since last GC: implicit roots
	prevRecent   []heap.Ptr // previous generation, still treated as roots
	sinceGC      uint64     // bytes allocated since last GC
	liveAfterGC  uint64     // marked bytes at the end of the last GC
	disableSweep bool       // pin everything (used by error experiments)

	stats heap.Stats
}

var _ heap.Allocator = (*Heap)(nil)

// New creates a conservative-GC heap.
func New(opts Options) (*Heap, error) {
	size := opts.HeapSize
	if size == 0 {
		size = DefaultHeapSize
	}
	if size < 16*blockSize {
		return nil, fmt.Errorf("gcsim: heap size %d too small", size)
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
		brk:        base,
		blocks:     make(map[uint64]*block),
		roots:      make(map[heap.Ptr]struct{}),
	}, nil
}

func classFor(size int) int {
	c := 0
	for s := 8; s < size; s <<= 1 {
		c++
	}
	return c
}

func classSize(c int) int { return 8 << c }

// AddRoot registers p as a GC root: the object containing p (and
// everything reachable from it) survives collections. Workloads register
// their globals block here.
func (h *Heap) AddRoot(p heap.Ptr) { h.roots[p] = struct{}{} }

// RemoveRoot unregisters a root.
func (h *Heap) RemoveRoot(p heap.Ptr) { delete(h.roots, p) }

// SetDisableSweep pins every object regardless of reachability. Error-
// tolerance experiments use it so that the GC row of Table 1 reflects
// the free-ignoring semantics rather than root-registration accidents.
func (h *Heap) SetDisableSweep(v bool) { h.disableSweep = v }

// Malloc allocates size bytes, collecting when the allocation budget
// since the previous collection is exhausted.
func (h *Heap) Malloc(size int) (heap.Ptr, error) {
	if size < 0 {
		h.stats.FailedMallocs++
		return heap.Null, fmt.Errorf("gcsim: negative allocation size %d", size)
	}
	if size == 0 {
		size = 1
	}
	threshold := h.liveAfterGC
	if threshold < minGCThreshold {
		threshold = minGCThreshold
	}
	if h.sinceGC >= threshold {
		h.Collect()
	}
	p, err := h.alloc(size)
	if err != nil {
		// Collect and retry once before reporting exhaustion, as BDW
		// does.
		h.Collect()
		p, err = h.alloc(size)
		if err != nil {
			h.stats.FailedMallocs++
			return heap.Null, err
		}
	}
	rounded := classSize(classFor(size))
	if size > maxSmall {
		rounded = int((uint64(size) + blockSize - 1) &^ (blockSize - 1))
	}
	heap.CountMallocs(&h.stats, 1, uint64(size), uint64(rounded))
	h.sinceGC += uint64(rounded)
	h.recent = append(h.recent, p)
	return p, nil
}

func (h *Heap) alloc(size int) (heap.Ptr, error) {
	if size > maxSmall {
		return h.allocBig(size)
	}
	c := classFor(size)
	if len(h.freeLists[c]) == 0 {
		if err := h.carveBlock(c); err != nil {
			return heap.Null, err
		}
	}
	list := h.freeLists[c]
	p := list[len(list)-1]
	h.freeLists[c] = list[:len(list)-1]
	// BDW threads its free lists through the objects themselves: honor
	// that by reading the link word out of the slot (the access is what
	// costs, and it is why recycled BDW memory is never pristine).
	if _, err := h.space.Load64(p); err != nil {
		return heap.Null, err
	}
	blk := h.blocks[(p-h.arenaStart)/blockSize*blockSize+h.arenaStart]
	idx := int(p-blk.base) / classSize(c)
	blk.alloc[idx>>6] |= 1 << (idx & 63)
	// Lock acquisition, granule lookup, and header bookkeeping of
	// GC_malloc.
	h.stats.WorkUnits += heap.WorkBitmap + 4*heap.WorkHeader
	return p, nil
}

// carveBlock dedicates a fresh (or recycled) block to class c and pushes
// its slots onto the free list.
func (h *Heap) carveBlock(c int) error {
	base, err := h.takeBlocks(1)
	if err != nil {
		return err
	}
	size := classSize(c)
	n := blockSize / size
	blk := &block{
		base:  base,
		class: c,
		nobj:  n,
		alloc: make([]uint64, (n+63)/64),
		nblks: 1,
	}
	h.blocks[base] = blk
	for i := n - 1; i >= 0; i-- {
		slot := base + uint64(i*size)
		// Thread the fresh free list through the slots.
		next := uint64(0)
		if i+1 < n {
			next = base + uint64((i+1)*size)
		}
		if err := h.space.Store64(slot, next); err != nil {
			return err
		}
		h.freeLists[c] = append(h.freeLists[c], slot)
	}
	h.stats.WorkUnits += heap.WorkMmap / 4 // block setup
	return nil
}

func (h *Heap) allocBig(size int) (heap.Ptr, error) {
	nblks := int((uint64(size) + blockSize - 1) / blockSize)
	base, err := h.takeBlocks(nblks)
	if err != nil {
		return heap.Null, err
	}
	blk := &block{
		base:  base,
		class: -1,
		nobj:  1,
		alloc: []uint64{1},
		nblks: nblks,
	}
	h.blocks[base] = blk
	h.stats.WorkUnits += heap.WorkMmap / 4
	return base, nil
}

// takeBlocks returns the base of n contiguous blocks, recycling single
// free blocks when n == 1.
func (h *Heap) takeBlocks(n int) (uint64, error) {
	if n == 1 && len(h.freeBlocks) > 0 {
		base := h.freeBlocks[len(h.freeBlocks)-1]
		h.freeBlocks = h.freeBlocks[:len(h.freeBlocks)-1]
		return base, nil
	}
	need := uint64(n * blockSize)
	if h.brk+need > h.arenaEnd {
		return 0, heap.ErrOutOfMemory
	}
	base := h.brk
	h.brk += need
	return base, nil
}

// Free is deliberately a no-op: the collector reclaims memory by
// reachability only. This single decision is why the BDW row of Table 1
// tolerates invalid frees, double frees, and dangling pointers.
func (h *Heap) Free(p heap.Ptr) error {
	h.stats.IgnoredFrees++
	return nil
}

// findObject resolves any pointer-looking value (interior pointers
// included) to its containing allocated object.
func (h *Heap) findObject(addr uint64) (*block, int, heap.Ptr, int, bool) {
	if addr < h.arenaStart || addr >= h.brk {
		return nil, 0, 0, 0, false
	}
	blockBase := (addr-h.arenaStart)/blockSize*blockSize + h.arenaStart
	blk, ok := h.blocks[blockBase]
	if !ok {
		// Interior block of a big object: scan backward for its head.
		for b := blockBase; b >= h.arenaStart; b -= blockSize {
			if cand, ok := h.blocks[b]; ok {
				if cand.class == -1 && addr < cand.base+uint64(cand.nblks*blockSize) {
					blk = cand
				}
				break
			}
		}
		if blk == nil {
			return nil, 0, 0, 0, false
		}
	}
	if blk.class == -1 {
		if blk.alloc[0]&1 == 0 {
			return nil, 0, 0, 0, false
		}
		return blk, 0, blk.base, blk.nblks * blockSize, true
	}
	size := classSize(blk.class)
	idx := int(addr-blk.base) / size
	if idx >= blk.nobj || blk.alloc[idx>>6]&(1<<(idx&63)) == 0 {
		return nil, 0, 0, 0, false
	}
	return blk, idx, blk.base + uint64(idx*size), size, true
}

// Collect runs a full conservative mark-sweep collection.
func (h *Heap) Collect() {
	h.stats.Collections++
	for _, blk := range h.blocks {
		blk.mark = make([]uint64, len(blk.alloc))
	}
	type span struct {
		start heap.Ptr
		size  int
	}
	var work []span
	markAddr := func(addr uint64) {
		blk, idx, start, size, ok := h.findObject(addr)
		if !ok {
			return
		}
		if blk.mark[idx>>6]&(1<<(idx&63)) != 0 {
			return
		}
		blk.mark[idx>>6] |= 1 << (idx & 63)
		work = append(work, span{start: start, size: size})
	}
	for r := range h.roots {
		markAddr(r)
	}
	// Both recent generations stand in for pointers held in registers
	// and stack frames, which a real conservative collector would scan.
	for _, p := range h.recent {
		markAddr(p)
	}
	for _, p := range h.prevRecent {
		markAddr(p)
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for off := 0; off+8 <= s.size; off += 8 {
			v, err := h.space.Load64(s.start + uint64(off))
			if err != nil {
				continue // unbacked page: nothing to scan
			}
			h.stats.WorkUnits += heap.WorkMarkWord
			markAddr(v)
		}
	}
	// Sweep in address order so reclaimed-slot reuse is deterministic
	// across runs (map iteration order would leak into the free lists).
	bases := make([]uint64, 0, len(h.blocks))
	for b := range h.blocks {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	var live uint64
	for _, base := range bases {
		blk := h.blocks[base]
		if h.disableSweep {
			live += uint64(blk.nblks * blockSize)
			continue
		}
		if blk.class == -1 {
			if blk.mark[0]&1 == 0 {
				blk.alloc[0] = 0
				// Big-object blocks are not recycled individually; the
				// descriptor stays to keep the address range resolvable.
			} else {
				live += uint64(blk.nblks * blockSize)
			}
			continue
		}
		size := classSize(blk.class)
		h.stats.WorkUnits += uint64(blk.nobj) * heap.WorkMarkWord // sweep scan
		for idx := 0; idx < blk.nobj; idx++ {
			w, bit := idx>>6, uint64(1)<<(idx&63)
			if blk.alloc[w]&bit != 0 && blk.mark[w]&bit == 0 {
				blk.alloc[w] &^= bit
				slot := blk.base + uint64(idx*size)
				// Thread the reclaimed slot into the free list.
				link := uint64(0)
				if n := len(h.freeLists[blk.class]); n > 0 {
					link = h.freeLists[blk.class][n-1]
				}
				if err := h.space.Store64(slot, link); err == nil {
					h.freeLists[blk.class] = append(h.freeLists[blk.class], slot)
				}
			} else if blk.alloc[w]&bit != 0 {
				live += uint64(size)
			}
		}
	}
	h.prevRecent = h.recent
	h.recent = nil
	h.sinceGC = 0
	h.liveAfterGC = live
	for _, blk := range h.blocks {
		blk.mark = nil
	}
}

// SizeOf reports the usable size of the allocated object starting at p.
func (h *Heap) SizeOf(p heap.Ptr) (int, bool) {
	_, _, start, size, ok := h.findObject(p)
	if !ok || start != p {
		return 0, false
	}
	return size, true
}

// ObjectBounds resolves interior pointers, satisfying libc.Bounds.
func (h *Heap) ObjectBounds(p heap.Ptr) (heap.Ptr, int, bool) {
	_, _, start, size, ok := h.findObject(p)
	return start, size, ok
}

// InHeap reports whether p points into the collected arena.
func (h *Heap) InHeap(p heap.Ptr) bool {
	return p >= h.arenaStart && p < h.brk
}

// Mem returns the simulated address space backing this heap.
func (h *Heap) Mem() *vmem.Space { return h.space }

// Stats returns the allocator counters.
func (h *Heap) Stats() *heap.Stats { return &h.stats }

// Name identifies the allocator in experiment reports.
func (h *Heap) Name() string { return "gc" }

// HeapBytes reports the total bytes of carved blocks, the space-overhead
// measure quoted against malloc/free in §4.5 and §8.
func (h *Heap) HeapBytes() uint64 { return h.brk - h.arenaStart }
