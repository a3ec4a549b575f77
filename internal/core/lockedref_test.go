package core

import (
	"sync"

	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/rng"
)

// allocator is the malloc/free pair a differencing test or a gate arm
// drives: a Heap, the locked reference, or a Magazine.
type allocator interface {
	Malloc(int) (heap.Ptr, error)
	Free(heap.Ptr) error
}

// lockedHeap is the per-class-mutex malloc engine, the allocator's
// first goroutine-safe design, kept as the reference the lock-free
// engine is differenced and benchmarked against (DESIGN.md §10): every
// probe, bitmap update and object fill runs under the size class's
// lock, which the reference keeps in its own array because the product
// has none. With the same seed and one goroutine the two engines place
// every object at the same address and fill it with the same bytes. It
// serves untagged heaps; null, refused sizes and large objects take
// Heap's own paths, which no engine owns.
type lockedHeap struct {
	*Heap
	mu *[NumClasses]sync.Mutex
}

// newLockedHeap returns the locked engine over h, with one fresh lock
// per size class.
func newLockedHeap(h *Heap) lockedHeap {
	return lockedHeap{h, new([NumClasses]sync.Mutex)}
}

// Malloc allocates a small object through the locked engine.
func (l lockedHeap) Malloc(size int) (heap.Ptr, error) {
	if size == 0 {
		size = 1
	}
	if size < 0 || size > MaxObjectSize {
		return l.Heap.Malloc(size)
	}
	return l.mallocLocked(ClassFor(size), size)
}

// Free is Heap.free without the tag and filter checks, releasing the
// slot under the class lock.
func (l lockedHeap) Free(p heap.Ptr) error {
	cl, sub, local := l.find(p)
	if cl == nil {
		return l.Heap.Free(p)
	}
	if (p-sub.base)&cl.mask != 0 || !l.freeLocked(cl, sub, local) {
		l.addStat(&l.stats.IgnoredFrees, 1)
		return nil
	}
	l.addStat(&l.stats.WorkUnits, heap.WorkBitmap)
	l.countFrees(1, uint64(cl.size))
	if l.trace != nil {
		l.trace.Emit(obs.EvFree, p)
	}
	if l.opts.OnFree != nil {
		l.opts.OnFree(p, cl.size)
	}
	return nil
}

// mallocLocked is the locked engine's small-object malloc: the
// threshold test, probe loop, claim and RandomFill all under the class
// mutex, consuming the same per-class draw stream as the lock-free
// engine.
func (l lockedHeap) mallocLocked(c, size int) (heap.Ptr, error) {
	h, cl, mu := l.Heap, &l.classes[c], &l.mu[c]
	mu.Lock()
	if cl.inUse >= cl.maxInUse {
		// At threshold: no more memory (Figure 2, line 6).
		mu.Unlock()
		h.addStat(&h.stats.FailedMallocs, 1)
		return heap.Null, heap.ErrOutOfMemory
	}
	// Probe for a free slot, consuming exactly the draw stream the
	// lock-free engine does, with the class mutex held and the stream
	// state register-resident. The reduction is the same Lemire
	// multiply-shift-with-rejection as rng.Uint32n, so the draw stream is
	// identical; probes are accounted in bulk afterwards.
	sub := cl.sub
	probeCap := 64*sub.slots + 64
	n := uint32(sub.slots)
	var local int
	probes := 0
	st := cl.randState
	rejectBelow := -n % n
	for {
		if probes == probeCap {
			cl.randState = st
			mu.Unlock()
			return heap.Null, &heap.CorruptionError{Detail: "diehard: no free slot found below fill threshold"}
		}
		probes++
		var v uint32
		st, v = rng.Step(st)
		m := uint64(v) * uint64(n)
		for uint32(m) < rejectBelow {
			st, v = rng.Step(st)
			m = uint64(v) * uint64(n)
		}
		local = int(m >> 32)
		if sub.bits[local>>6]&(1<<(local&63)) == 0 {
			break
		}
	}
	cl.randState = st
	sub.bits[local>>6] |= 1 << (local & 63)
	cl.inUse++
	cl.mallocs++
	ptr := sub.base + uint64(local)<<cl.shift
	var fillErr error
	if h.opts.RandomFill {
		// Fill under the class lock, from the class stream: each
		// class's sequence of fill values is deterministic in its own
		// allocation order (Figure 2, DieHardMalloc lines 18-20).
		fillErr = h.fillClassRandom(cl, ptr, cl.size)
	}
	mu.Unlock()
	if fillErr != nil {
		return heap.Null, fillErr
	}
	h.addStat(&h.stats.Probes, uint64(probes))
	h.addStat(&h.stats.WorkUnits,
		heap.WorkSizeClass+uint64(probes)*heap.WorkProbe+heap.WorkBitmap)
	h.countMallocs(1, uint64(size), uint64(cl.size))
	if h.trace != nil {
		h.trace.Emit(obs.EvMalloc, ptr)
	}
	if h.opts.OnAlloc != nil {
		h.opts.OnAlloc(ptr, size, cl.size)
	}
	return ptr, nil
}

// freeLocked is the locked engine's release, whose bitmap and
// occupancy the class mutex guards.
func (l lockedHeap) freeLocked(cl *sizeClass, sub *subregion, local int) bool {
	mu := &l.mu[ClassFor(cl.size)]
	mu.Lock()
	won := sub.release(local, false)
	if won {
		l.unreserve(cl, 1)
	}
	mu.Unlock()
	return won
}
