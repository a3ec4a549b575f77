package policies

import (
	"diehard/internal/heap"
	"diehard/internal/leaalloc"
	"diehard/internal/vmem"
)

// RxOptions are the allergen-avoiding environment changes Rx applies to
// the allocator when re-executing after a crash (Qin et al., SOSP 2005):
// padding object requests, zero-filling buffers, delaying frees, and
// ignoring double frees.
type RxOptions struct {
	Pad              int  // extra bytes added to every request
	ZeroFill         bool // zero newly allocated buffers
	DeferFrees       int  // hold this many frees before releasing
	IgnoreDoubleFree bool // drop frees of already-freed pointers
}

// RxAlloc wraps a standard allocator with RxOptions applied.
type RxAlloc struct {
	base  *leaalloc.Heap
	opts  RxOptions
	freed map[heap.Ptr]bool
	queue []heap.Ptr
	stats heap.Stats
}

var _ heap.Allocator = (*RxAlloc)(nil)

// NewRxAlloc creates a standard heap with Rx's environment changes.
func NewRxAlloc(heapSize int, opts RxOptions) (*RxAlloc, error) {
	base, err := leaalloc.New(leaalloc.Options{HeapSize: heapSize})
	if err != nil {
		return nil, err
	}
	return &RxAlloc{base: base, opts: opts, freed: make(map[heap.Ptr]bool)}, nil
}

// Malloc allocates with padding and optional zero fill.
func (r *RxAlloc) Malloc(size int) (heap.Ptr, error) {
	p, err := r.base.Malloc(size + r.opts.Pad)
	if err != nil {
		r.stats.FailedMallocs++
		return heap.Null, err
	}
	if r.opts.ZeroFill {
		if err := r.base.Mem().Memset(p, 0, size+r.opts.Pad); err != nil {
			return heap.Null, err
		}
	}
	delete(r.freed, p)
	heap.CountMallocs(&r.stats, 1, uint64(size), uint64(size+r.opts.Pad))
	return p, nil
}

// Free applies double-free suppression and free deferral before handing
// the pointer to the underlying allocator.
func (r *RxAlloc) Free(p heap.Ptr) error {
	if p == heap.Null {
		return nil
	}
	if r.opts.IgnoreDoubleFree {
		if r.freed[p] {
			r.stats.IgnoredFrees++
			return nil
		}
		r.freed[p] = true
	}
	heap.CountFrees(&r.stats, 1, 1)
	if r.opts.DeferFrees > 0 {
		r.queue = append(r.queue, p)
		if len(r.queue) <= r.opts.DeferFrees {
			return nil
		}
		p = r.queue[0]
		r.queue = r.queue[1:]
	}
	return r.base.Free(p)
}

// Flush releases all deferred frees. RunRx calls it when the program
// completes: deferral delays frees, it does not cancel them, so a crash
// hiding in the queue still surfaces.
func (r *RxAlloc) Flush() error {
	for _, p := range r.queue {
		if err := r.base.Free(p); err != nil {
			r.queue = nil
			return err
		}
	}
	r.queue = nil
	return nil
}

// SizeOf reports the underlying chunk capacity.
func (r *RxAlloc) SizeOf(p heap.Ptr) (int, bool) { return r.base.SizeOf(p) }

// Mem returns the simulated address space.
func (r *RxAlloc) Mem() *vmem.Space { return r.base.Mem() }

// Stats returns the runtime's counters.
func (r *RxAlloc) Stats() *heap.Stats { return &r.stats }

// Name identifies the runtime in experiment reports.
func (r *RxAlloc) Name() string { return "rx" }

// RxEscalation is the default sequence of increasingly aggressive
// environment changes Rx tries across re-executions.
var RxEscalation = []RxOptions{
	{}, // first run: unmodified environment
	{IgnoreDoubleFree: true, ZeroFill: true},
	{IgnoreDoubleFree: true, ZeroFill: true, Pad: 32},
	{IgnoreDoubleFree: true, ZeroFill: true, Pad: 128, DeferFrees: 256},
}

// RxResult reports how an Rx-supervised execution ended.
type RxResult struct {
	// Attempts is the number of executions performed (1 = no recovery
	// was needed).
	Attempts int
	// Err is the error of the final attempt; nil means the program
	// completed.
	Err error
	// Recovered reports whether a crash was survived via rollback and
	// re-execution.
	Recovered bool
}

// RunRx executes a deterministic program under Rx supervision:
// checkpoint (trivially, the program's initial state), run, and on a
// crash roll back and re-execute with escalating environment changes.
// Crashes are the only failures Rx can see; silently wrong executions
// complete "successfully", which is exactly the unsoundness §8
// attributes to it.
func RunRx(heapSize int, prog func(a heap.Allocator) error) RxResult {
	res := RxResult{}
	for _, opts := range RxEscalation {
		res.Attempts++
		alloc, err := NewRxAlloc(heapSize, opts)
		if err != nil {
			res.Err = err
			return res
		}
		err = prog(alloc)
		if err == nil {
			err = alloc.Flush() // deferred frees still happen eventually
		}
		res.Err = err
		if err == nil {
			res.Recovered = res.Attempts > 1
			return res
		}
		if !heap.IsCrash(err) {
			// Not a crash: Rx has nothing to roll back from.
			return res
		}
	}
	return res
}
