// Package core implements the DieHard randomized memory allocator, the
// primary contribution of Berger & Zorn, "DieHard: Probabilistic Memory
// Safety for Unsafe Languages" (PLDI 2006), §4.
//
// The allocator approximates an infinite heap: the heap is M times larger
// than the maximum live size, objects are placed uniformly at random
// within power-of-two size-class regions, and all heap metadata (one bit
// per object plus counters) is completely segregated from the heap
// itself. The resulting guarantees are probabilistic and quantified in
// internal/analysis:
//
//   - buffer overflows land on free space with probability (F/H)^O
//     (Theorem 1);
//   - a prematurely freed object survives A intervening allocations with
//     probability at least 1 - A/(F/S) (Theorem 2);
//   - invalid and double frees are detected and ignored outright;
//   - heap metadata cannot be overwritten by heap writes at all.
//
// In replicated mode (Options.RandomFill) the heap and every allocated
// object are filled with values from the replica's private random stream,
// which is what lets the voter in internal/replicate detect uninitialized
// reads (§3.2, Theorem 3).
//
// Concurrency (DESIGN.md §7, §10): allocator metadata operations are
// goroutine-safe, and malloc is lock-free in the common case. The probe
// loop draws from a per-class random stream kept in an atomic word
// (advanced by compare-and-swap, so one goroutine preserves the exact
// seeded sequence) and claims slots by CASing the allocation bitmap
// word directly; occupancy is an atomic counter reserved with a bounded
// CAS increment, so the 1/M threshold can never be overshot. No size
// class has a lock: each class's region is fixed at construction
// (HeapSize/NumClasses, §4), and so is the page index that resolves
// pointers for Free/SizeOf/ObjectBounds, which is read without one.
// Concurrent use requires Options.Concurrent, which switches
// the aggregate Stats and the space's access accounting to atomic
// updates; heaps built without it keep unsynchronized counters and must
// be confined to one goroutine at a time, as the sequential experiment
// trials and replicated-mode replicas are.
package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/rng"
	"diehard/internal/vmem"
)

const (
	// NumClasses is the number of size-class regions: powers of two from
	// 8 bytes to 16 kilobytes (§4.1).
	NumClasses = 12
	// MinObjectSize is the smallest size class.
	MinObjectSize = 8
	// MaxObjectSize is the largest size served from the randomized
	// regions; larger requests are mmap'd directly with guard pages.
	MaxObjectSize = 16 * 1024
	// DefaultHeapSize matches the paper's evaluation configuration: a
	// 384 MB heap of which up to 1/M is available for allocation (§7.1).
	DefaultHeapSize = 384 << 20
	// DefaultM is the default heap expansion factor.
	DefaultM = 2.0
	// DefaultQuarantineCap is the quarantine FIFO bound when
	// Options.QuarantineCap is not set.
	DefaultQuarantineCap = 64
)

// Options configures a DieHard heap. The zero value selects the paper's
// defaults (384 MB heap, M = 2, stand-alone mode, entropy seed).
type Options struct {
	// HeapSize is the total size of the small-object heap, divided
	// evenly into NumClasses regions. Defaults to DefaultHeapSize.
	HeapSize int
	// M is the heap expansion factor: each region may become at most
	// 1/M full. Must be greater than 1. Defaults to DefaultM.
	M float64
	// Seed seeds the allocator's random stream; 0 draws a true random
	// seed, as the paper does from /dev/urandom. Replicas record their
	// seeds so failures are reproducible.
	Seed uint64
	// RandomFill enables replicated-mode semantics: the heap and every
	// allocated object are filled with random values (§4.1, §4.2). An
	// object's fill continues its class's probe stream right after the
	// probes that placed it, which only the sequential commit can order,
	// so RandomFill cannot be combined with Concurrent.
	RandomFill bool
	// EnableTLB turns on TLB simulation in the underlying address space,
	// used by the Figure 5 cost model. TLB accounting models a single
	// hardware context; it is incompatible with Concurrent.
	EnableTLB bool
	// Concurrent prepares the heap for use by multiple goroutines at
	// once: allocator statistics are maintained atomically and the
	// underlying space counts accesses atomically (vmem.StatsShared),
	// and the probe stream and bitmap are committed by CAS. Sequential
	// heaps skip those atomics.
	Concurrent bool
	// RemoteRing attaches a bounded multi-producer free ring to the heap
	// (DESIGN.md §12): RemoteFree enqueues the address with one atomic
	// ticket and the owner applies the clears in batches at its drain
	// points (magazine refill, threshold miss, CheckInvariants), so
	// cross-worker frees stop contending on the owner's bitmap and
	// occupancy cache lines. Sharded heaps propagate the option to every
	// shard. Requires Concurrent, so it excludes observation hooks.
	RemoteRing bool
	// GenTags attaches a generation counter to every small-object slot
	// (DESIGN.md §15): a per-subregion side array next to the bitmap, so
	// — like every other piece of DieHard metadata — tags live outside
	// user memory and object placement is byte-identical to an untagged
	// heap. The counter's parity encodes liveness (odd = allocated, even
	// = free): every claim bumps even→odd once its stream commit wins,
	// and every free arbitrates by CAS-ing the counter odd→even *before*
	// clearing the bit, which makes the generation word — not the bitmap
	// bit — the single §4.3 arbiter of racing frees on tagged heaps.
	// MallocFat issues fat pointers (addr, generation) and FreeFat
	// rejects any whose generation is stale, turning the double free that
	// straddles a reallocation — undetectable in any pure bitmap
	// allocator (§12) — into a deterministic Stats.StaleFrees rejection.
	// A slot reaching the generation ceiling is retired (bit held set
	// forever, counted in Stats.Retired) so the 32-bit tag can never wrap
	// into a false "valid".
	GenTags bool
	// OnAlloc, when non-nil, is invoked after every successful
	// allocation with the object's address, the requested size, and the
	// size of the backing slot (the size-class object size, or the
	// page-rounded usable size for large objects). It runs on the
	// allocating goroutine, outside any lock, before the pointer
	// is returned — so a detection engine (internal/detect) can audit
	// and re-arm canaries before the program can touch the object. The
	// heap does not synchronize hook invocations, so New refuses any
	// observation hook (OnAlloc, OnFree, OnStaleFree) on a Concurrent
	// heap: hooked heaps are confined to one goroutine at a time.
	OnAlloc func(p heap.Ptr, reqSize, slotSize int)
	// OnFree, when non-nil, is invoked on every successful free (ignored
	// invalid and double frees do not fire it) with the freed object's
	// address and slot size. For large objects the hook runs *before*
	// the guarded mapping is unmapped, so a detection engine can audit
	// the trailing-page slack that the unmap destroys; the hook can tell
	// them apart because their OnAlloc reported reqSize > MaxObjectSize.
	// The hooks fire exactly once per CAS winner: the goroutine that set
	// (or cleared) the slot's bit is the one that runs the hook, outside
	// any lock.
	OnFree func(p heap.Ptr, slotSize int)
	// OnStaleFree, when non-nil, is invoked whenever a generation-tagged
	// free (FreeFat) is rejected because the pointer's generation no
	// longer matches the slot's — the deterministic temporal-safety
	// signal a detection engine records as evidence. Like OnAlloc/OnFree
	// it runs unsynchronized on the freeing goroutine, so it cannot be
	// combined with Concurrent.
	OnStaleFree func(p heap.Ptr, gen uint64)
	// QuarantineCap bounds the quarantine FIFO that Heap.Quarantine
	// fills (default 64): pushing past the cap releases the oldest held
	// slot. Larger caps hold freed slots out of reuse longer at the cost
	// of occupancy — the fullness shift analysis.QuarantineFullnessShift
	// prices.
	QuarantineCap int
	// Trace, when non-nil, is the heap's flight-recorder ring
	// (internal/obs): malloc, free, remote-free tickets, ring drains,
	// quarantine holds, and invariant barriers emit one fixed-size
	// stamped event each. Tracing observes the engine without steering
	// it — no RNG draw is consumed and no placement changes, so golden
	// campaign hashes are byte-identical with tracing on. Nil (the zero
	// value) costs exactly one pointer check per instrumented site, the
	// same discipline as the TLB hook; unlike the observation hooks, the
	// ring is lock-free and multi-producer, so traced heaps may be
	// Concurrent and keep RemoteRing.
	Trace *obs.Ring
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.HeapSize == 0 {
		v.HeapSize = DefaultHeapSize
	}
	if v.M == 0 {
		v.M = DefaultM
	}
	if v.QuarantineCap <= 0 {
		v.QuarantineCap = DefaultQuarantineCap
	}
	return v
}

// subregion is a size class's mapped region and its slot metadata. It
// stays a struct of its own, one pointer away from the sizeClass, so
// the read-mostly slot metadata does not share cache lines with the
// class's CAS words. The class back-pointer and the shift duplicate
// (log2 of the class's object size) let a pointer resolved through the
// page index compute its slot without a second indirection. A
// concurrent heap claims and releases bits by CAS and reads them with
// atomic loads (DESIGN.md §10); a sequential (non-Concurrent) heap is
// confined to one goroutine, where the plain accessors are exact
// without any fence. On amd64 an atomic load is an ordinary MOV, so the
// read paths use atomic loads on both — the cost shows up only in
// stores, which Go compiles to XCHG. base, slots, and shift are
// immutable after construction.
type subregion struct {
	base  uint64
	slots int
	bits  []uint64 // allocation bitmap: one bit per slot, segregated metadata
	// gens is the per-slot generation word (Options.GenTags, DESIGN.md
	// §15), nil on untagged heaps. Parity encodes liveness (odd =
	// allocated): claims bump after their stream commit, frees CAS
	// odd→even before clearing the bit — on tagged heaps this word, not
	// the bit, arbitrates racing frees. Segregated metadata like the
	// bitmap: heap writes cannot reach it, and placement is unchanged.
	gens  []uint32
	cl    *sizeClass
	h     *Heap // owning heap: the shard a magazine-buffered free settles on
	shift uint
}

func (s *subregion) getAtomic(i int) bool {
	return atomic.LoadUint64(&s.bits[i>>6])&(1<<(i&63)) != 0
}

// casSet claims slot i on the lock-free path: it retries until either
// this goroutine's CAS sets the bit (true — the caller owns the slot) or
// the bit is observed already set (false — a racing winner or an
// existing allocation holds it; the caller redraws). Retries only happen
// when a concurrent operation changed another bit of the same word, so
// the loop is lock-free: every failed CAS means someone else progressed.
func (s *subregion) casSet(i int) bool {
	w := &s.bits[i>>6]
	bit := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			return true
		}
	}
}

// release clears slot i's bit — by CAS on concurrent heaps — and reports
// whether this call cleared it; false means the bit was already clear (a
// double free, detected exactly as §4.3 requires — of two racing frees
// of the same pointer, exactly one clears the bit). It is every free
// route's bit-clear and the untagged heap's arbiter, small enough to
// inline into the free, flush and ring drain loops.
func (s *subregion) release(i int, concurrent bool) bool {
	w, bit := &s.bits[i>>6], uint64(1)<<(i&63)
	for concurrent {
		old := atomic.LoadUint64(w)
		if old&bit == 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old&^bit) {
			return true
		}
	}
	old := *w
	*w = old &^ bit
	return old&bit != 0
}

// sizeClass holds the segregated metadata for one power-of-two region.
// It has no lock: probing draws from randState (the packed rng.Step
// stream), slots are claimed by bitmap CAS, and occupancy is reserved
// with a bounded CAS increment on inUse so the 1/M threshold holds at
// every instant, not just at quiescence — with the CAS machinery
// engaged only when Options.Concurrent declares real multi-goroutine
// use; sequential heaps run the same protocol fence-free (plain fields
// + sync/atomic function calls, so each heap pays only for the
// ordering it needs). sub and maxInUse are set when the heap is built
// and never change.
type sizeClass struct {
	randState uint64 // packed MWC probe/fill stream (rng.Step)

	size     int
	shift    uint       // log2(size), for divisions on the hot path
	mask     uint64     // size - 1, for alignment checks on the hot path
	sub      *subregion // the class's region
	inUse    int64      // live slots; never exceeds maxInUse
	maxInUse int64      // threshold: floor(sub.slots / M)
	mallocs  uint64
}

// largeObject records an mmap'd allocation (> MaxObjectSize), which lives
// outside the main heap behind guard pages.
type largeObject struct {
	size      int    // requested (usable) size
	mapBase   uint64 // start of the guarded mapping
	mapLength int    // total mapped length including guard pages
	gen       uint64 // GenTags: per-heap monotonic issue counter (odd, never wraps)
}

// pageIndex resolves a page number to its subregion in O(1): the
// allocator-level analog of the vmem radix table. Entry (pn - basePn) of
// ord is the ordinal in subs of the subregion owning that page; ordinal
// 0 is the nil entry, for pages that belong to no small-object subregion
// (holes, guards, large objects). The per-page table holds no pointers,
// so it costs 2 bytes a page and nothing to the garbage collector's mark
// phase. newHeap builds it once, after mapping all its classes, and it
// never changes, so Free, SizeOf, ObjectBounds, and InHeap read it
// without a lock.
type pageIndex struct {
	basePn uint64
	ord    []uint16
	subs   []*subregion // subs[0] is nil
}

// buildIndex returns the page index of a heap's subregions. Subregion
// bases are handed out in increasing address order, so the first one
// starts the table; pages mapped in between for other purposes (guards)
// keep ordinal 0.
func buildIndex(subs []*subregion) *pageIndex {
	idx := &pageIndex{
		basePn: subs[0].base / vmem.PageSize,
		subs:   append([]*subregion{nil}, subs...),
	}
	idx.ord = make([]uint16, subs[len(subs)-1].endPn()-idx.basePn)
	for o, sub := range subs {
		for pn := sub.base/vmem.PageSize - idx.basePn; pn < sub.endPn()-idx.basePn; pn++ {
			idx.ord[pn] = uint16(o + 1)
		}
	}
	return idx
}

// endPn is one past the last page holding any of the subregion's slots.
func (s *subregion) endPn() uint64 {
	return (s.base + uint64(s.slots)<<s.shift + vmem.PageSize - 1) / vmem.PageSize
}

// Heap is a DieHard heap. Metadata operations are safe for concurrent
// use by multiple goroutines; see Options.Concurrent for concurrent data
// access. Each simulated process still typically owns its own Heap, just
// as each DieHard replica owns its own randomized allocator.
type Heap struct {
	opts        Options
	space       *vmem.Space
	ownsSpace   bool // built its space, so Close closes it (not a shard)
	seed        uint64
	atomicStats bool // Concurrent heaps maintain stats atomically
	classes     [NumClasses]sizeClass
	stats       heap.Stats

	largeMu   sync.Mutex
	large     map[heap.Ptr]largeObject
	largeRand rng.MWC // fill stream for large objects; under largeMu
	largeGen  uint64  // GenTags issue counter for large objects; under largeMu

	pageIdx *pageIndex

	magRegistry // magazines over this heap (NewMagazine)

	remote  *freeRing  // remote-free ring (Options.RemoteRing), nil otherwise
	drainMu sync.Mutex // serializes ring drains: the single-consumer side

	// Quarantine FIFO (Heap.Quarantine): held slots keep their bitmap
	// bit and occupancy reservation until released oldest-first. The
	// mutex guards only the FIFO bookkeeping — releases run the normal
	// lock-free clear outside it. quarHead indexes the logical front;
	// the backing array is compacted when the dead prefix dominates.
	quarMu     sync.Mutex
	quarantine []heap.Ptr
	quarHead   int

	// trace is the flight-recorder ring (Options.Trace, or installed
	// later by ShardedHeap.AttachRecorder). Nil = disabled; every emit
	// site guards with its own nil check so the disabled hot path is one
	// branch. The field is not synchronized, by design: install it before
	// the heap is shared between goroutines, or at a quiescent point.
	trace *obs.Ring
}

var _ heap.Allocator = (*Heap)(nil)

// addStat bumps a stats counter: atomically for Concurrent heaps, with a
// plain add otherwise — sequential trials keep their unsynchronized
// speed, concurrent heaps stay exact under -race.
func (h *Heap) addStat(p *uint64, n uint64) {
	if h.atomicStats {
		atomic.AddUint64(p, n)
	} else {
		*p += n
	}
}

// countMallocs publishes n mallocs of req requested and alloc rounded
// bytes in all, and countFrees n frees of bytes rounded bytes, with
// addStat's atomic-or-plain rule. Unbatched paths pass n = 1; magazine
// refills, flushes and ring drains pass whole batches.
func (h *Heap) countMallocs(n int, req, alloc uint64) {
	if h.atomicStats {
		heap.CountMallocsAtomic(&h.stats, n, req, alloc)
	} else {
		heap.CountMallocs(&h.stats, n, req, alloc)
	}
}

func (h *Heap) countFrees(n int, bytes uint64) {
	if h.atomicStats {
		heap.CountFreesAtomic(&h.stats, n, bytes)
	} else {
		heap.CountFrees(&h.stats, n, bytes)
	}
}

// New creates a DieHard heap with the given options.
func New(opts Options) (*Heap, error) {
	return newHeap(opts, nil)
}

// newHeap builds a heap, either with its own address space (space ==
// nil) or inside a caller-provided shared space (ShardedHeap), whose
// stats mode and fillers the caller manages.
func newHeap(opts Options, space *vmem.Space) (*Heap, error) {
	o := opts.withDefaults()
	if o.M <= 1 {
		return nil, fmt.Errorf("diehard: M must exceed 1, got %v", o.M)
	}
	if o.EnableTLB && o.Concurrent {
		return nil, fmt.Errorf("diehard: TLB simulation is sequential and cannot be combined with Concurrent")
	}
	if o.RandomFill && o.Concurrent {
		return nil, fmt.Errorf("diehard: RandomFill cannot be combined with Concurrent: the fill draws interleave with the probe draws, which the CAS commit cannot order")
	}
	if o.Concurrent && (o.OnAlloc != nil || o.OnFree != nil || o.OnStaleFree != nil) {
		return nil, fmt.Errorf("diehard: observation hooks (OnAlloc, OnFree, OnStaleFree) run unsynchronized and cannot be combined with Concurrent")
	}
	perClass := o.HeapSize / NumClasses
	perClass -= perClass % vmem.PageSize
	if perClass < vmem.PageSize {
		return nil, fmt.Errorf("diehard: heap size %d too small for %d regions", o.HeapSize, NumClasses)
	}
	h := &Heap{
		opts:        o,
		space:       space,
		atomicStats: o.Concurrent,
		large:       make(map[heap.Ptr]largeObject),
		trace:       o.Trace,
	}
	if o.RemoteRing {
		if !o.Concurrent {
			return nil, fmt.Errorf("diehard: RemoteRing is a cross-goroutine free path and requires Concurrent")
		}
		h.remote = newFreeRing(remoteRingSize)
	}
	if h.space == nil {
		h.space, h.ownsSpace = vmem.NewSpace(), true
		if o.Concurrent {
			h.space.SetStatsMode(vmem.StatsShared)
		}
		if o.EnableTLB {
			h.space.EnableTLB()
		}
	}
	master := rng.NewSeeded(o.Seed)
	if o.Seed == 0 {
		master = rng.New()
	}
	h.seed = master.Seed()
	if o.RandomFill && space == nil {
		// Realize "fill the heap with random values" (§4.1) lazily:
		// every page instantiated in this replica's address space is
		// pre-filled from a stream derived from the allocator seed.
		h.space.SetPageFiller(master.Split().Fill)
	}

	var subs [NumClasses]*subregion
	for c := range h.classes {
		cl := &h.classes[c]
		cl.size = MinObjectSize << c
		cl.shift = uint(bits.TrailingZeros(uint(cl.size)))
		cl.mask = uint64(cl.size - 1)
		// Every class draws from its own stream, deterministically
		// derived from the master seed, so the probe sequence of one
		// class is independent of activity in the others — the property
		// that keeps placement deterministic per class allocation
		// sequence.
		cl.randState = master.Split().Seed()
		// Each class gets one fixed region behind guard pages (§4). A
		// class whose objects outsize a small heap's region has no slots
		// but still maps a page, so its base is a real address.
		slots := perClass / cl.size
		base, err := h.space.MapGuarded(max(slots*cl.size, vmem.PageSize))
		if err != nil {
			return nil, err
		}
		h.addStat(&h.stats.WorkUnits, heap.WorkMmap)
		sub := &subregion{
			base:  base,
			slots: slots,
			bits:  make([]uint64, (slots+63)/64),
			cl:    cl,
			h:     h,
			shift: cl.shift,
		}
		if o.GenTags {
			sub.gens = make([]uint32, slots)
		}
		cl.sub, cl.maxInUse = sub, int64(float64(slots)/o.M)
		subs[c] = sub
	}
	h.pageIdx = buildIndex(subs[:])
	h.largeRand = *master.Split()
	return h, nil
}

// ClassFor returns the size-class index for a request: ceil(log2(size))-3
// (§4.2), with requests below MinObjectSize rounded up to class 0.
func ClassFor(size int) int {
	if size <= MinObjectSize {
		return 0
	}
	return bits.Len(uint(size-1)) - 3
}

// ClassSize returns the object size of class c.
func ClassSize(c int) int { return MinObjectSize << c }

// Malloc allocates size bytes, placing the object uniformly at random
// within its size class region (DieHardMalloc, Figure 2 of the paper).
// Safe for concurrent use; the small-object path is lock-free (DESIGN.md
// §10).
func (h *Heap) Malloc(size int) (heap.Ptr, error) {
	fp, err := h.malloc(size)
	return fp.Addr, err
}

// malloc is the one malloc path: it returns the fat pointer carrying the
// tag the claim issued, 0 on an untagged heap. A small object is a
// one-slot claim (DESIGN.md §10): no mutex is touched, and exactly one
// goroutine wins each slot, so the observation hooks fire exactly once
// per allocation.
func (h *Heap) malloc(size int) (heap.FatPtr, error) {
	if size < 0 {
		h.addStat(&h.stats.FailedMallocs, 1)
		return heap.FatPtr{}, fmt.Errorf("diehard: negative allocation size %d", size)
	}
	if size == 0 {
		size = 1 // malloc(0) returns a distinct pointer, as in C
	}
	if size > MaxObjectSize {
		return h.allocateLargeObject(size)
	}
	c := ClassFor(size)
	cl := &h.classes[c]
	var one [1]int32
	idxs, err := h.claim(c, 1, one[:0])
	for err == nil && len(idxs) == 0 {
		// A wild free emptied the claim before its commit: claim again,
		// as the magazine's pop loop refills again.
		idxs, err = h.claim(c, 1, one[:0])
	}
	if err != nil {
		return heap.FatPtr{}, err
	}
	sub, local := cl.sub, int(idxs[0])
	ptr := sub.base + uint64(local)<<cl.shift
	// The generation bump needs no CAS: the slot's word is only ever
	// advanced even→odd by its claimant (us), and frees reject even
	// words, so the word is quiescent until we bump.
	gen := h.genClaim(sub, local)
	if h.opts.RandomFill {
		// RandomFill heaps are sequential: the fill continues the class
		// stream the claim just committed, right after this malloc's
		// probes, so each class's fill values are deterministic in its
		// own allocation order (Figure 2, DieHardMalloc lines 18-20).
		if err := h.fillClassRandom(cl, ptr, cl.size); err != nil {
			return heap.FatPtr{}, err
		}
	}
	h.countMallocs(1, uint64(size), uint64(cl.size))
	if h.trace != nil {
		h.trace.Emit(obs.EvMalloc, ptr)
	}
	if h.opts.OnAlloc != nil {
		h.opts.OnAlloc(ptr, size, cl.size)
	}
	return heap.FatPtr{Addr: ptr, Gen: uint64(gen)}, nil
}

// claim is the one claim protocol (DESIGN.md §10, §11): malloc runs it
// for one slot, a magazine refill for a batch. A bounded CAS increment
// reserves up to want units of class c's occupancy (reserveBatch); then
// slots are drawn from the class stream against a register-resident
// copy of its packed state, and each free slot is claimed as it is
// drawn, so every draw probes the bitmap its predecessors left, exactly
// as that many back-to-back one-slot claims would. One CAS commits the
// whole stream advance, a plain store on a sequential heap. If the CAS
// loses, a racing claimant advanced the stream first: the claims are
// undone and the draws replay from the fresh state (with backoff;
// losses surface in Stats.CASRetries), so a committed claim is always a
// contiguous prefix of the class stream. At one goroutine the commit
// never loses, which is what keeps placement seed-deterministic.
//
// claim returns the slot indexes into the class's subregion of the
// committed claims, appended to idxs[:0] in draw order; the caller
// bumps their generations. A replay shrinks the claim by the units
// undoClaims reports gone, so it can commit fewer slots than it
// reserved, or none: on an untagged Concurrent heap a claimed bit is
// set from its CAS until the commit, and an aligned wild free in that
// window clears it and hands its unit back (the pre-claim straddle of
// DESIGN.md §11).
func (h *Heap) claim(c, want int, idxs []int32) ([]int32, error) {
	cl := &h.classes[c]
	got, err := h.reserveBatch(c, want)
	if err != nil {
		h.addStat(&h.stats.FailedMallocs, 1)
		return idxs, err
	}
	// Probe for free slots. The region is at most 1/M full, so the
	// expected number of probes per slot is 1/(1 - 1/M): two for M = 2
	// (§4.2). The cap guards against metadata-accounting bugs, not
	// against bad luck; it is astronomically unlikely to trigger when
	// invariants hold. probes accumulates across replays: an abandoned
	// attempt's probes were real bitmap examinations, so they are
	// charged like every other.
	sub := cl.sub
	n := uint32(sub.slots)
	probeCap := 64*sub.slots + 64
	probes, replays := 0, 0
	for {
		st0 := atomic.LoadUint64(&cl.randState)
		st := st0
		idxs = idxs[:0]
		if !h.atomicStats {
			// A sequential heap runs without fences: the bitmap words
			// are addressed directly and the whole claim loop runs
			// register-to-register.
			bitsW := sub.bits
			for len(idxs) < got && probes < probeCap {
				probes++
				// Lemire multiply-shift with rejection, the reduction of
				// rng.Uint32n: every claim draws the identical stream, and
				// only a low product below n pays the division.
				var v uint32
				st, v = rng.Step(st)
				m := uint64(v) * uint64(n)
				if uint32(m) < n {
					for t := -n % n; uint32(m) < t; m = uint64(v) * uint64(n) {
						st, v = rng.Step(st)
					}
				}
				local := int(m >> 32)
				w, bit := local>>6, uint64(1)<<(local&63)
				if bitsW[w]&bit == 0 {
					bitsW[w] |= bit
					idxs = append(idxs, int32(local))
				}
			}
		} else {
			for len(idxs) < got && probes < probeCap {
				probes++
				var v uint32
				st, v = rng.Step(st)
				m := uint64(v) * uint64(n)
				if uint32(m) < n {
					for t := -n % n; uint32(m) < t; m = uint64(v) * uint64(n) {
						st, v = rng.Step(st)
					}
				}
				local := int(m >> 32)
				if sub.casSet(local) {
					idxs = append(idxs, int32(local))
				}
			}
		}
		if len(idxs) < got {
			// Probe cap reached: undo and release everything this claim
			// still holds.
			h.unreserve(cl, got-h.undoClaims(sub, idxs))
			return idxs[:0], &heap.CorruptionError{Detail: "diehard: no free slot found below fill threshold"}
		}
		if !h.atomicStats {
			cl.randState = st
			cl.mallocs += uint64(got)
			break
		}
		if atomic.CompareAndSwapUint64(&cl.randState, st0, st) {
			atomic.AddUint64(&cl.mallocs, uint64(got))
			break
		}
		// A racing claimant advanced the stream: these draws are no
		// longer the stream prefix, so un-claim and replay, shrunk by the
		// units the undo reports gone so the replay's claims still
		// balance the reservation. A class losing repeatedly is
		// contended; the backoff jitter comes from the consumed local
		// draw state, never a fresh draw.
		got -= h.undoClaims(sub, idxs)
		replays++
		backoffSpin(replays, uint32(st)^uint32(st0>>32))
	}
	h.addStat(&h.stats.Probes, uint64(probes))
	if replays > 0 {
		h.addStat(&h.stats.CASRetries, uint64(replays))
	}
	h.addStat(&h.stats.WorkUnits,
		uint64(got)*(heap.WorkSizeClass+heap.WorkBitmap)+uint64(probes)*heap.WorkProbe)
	return idxs, nil
}

// undoClaims releases the bitmap bits of an abandoned claim attempt's
// slots in sub and returns how many of their occupancy units the claim
// no longer holds. The claims are untagged yet (callers tag only
// committed claims), so on a tagged heap no free can have touched them;
// on an untagged heap a wild free may have cleared one, and that free
// already gave its unit back.
func (h *Heap) undoClaims(sub *subregion, idxs []int32) int {
	lost := 0
	for _, idx := range idxs {
		if !sub.release(int(idx), h.atomicStats) {
			lost++
		}
	}
	return lost
}

// backoffSink absorbs the spin loop below so the compiler cannot
// eliminate it; the store is atomic only to stay clean under -race.
var backoffSink atomic.Uint64

// backoffSpin delays a CAS replay loop that keeps losing: bounded
// exponential spin (capped at 64 iterations) plus jitter, yielding the
// processor once the class is severely contended. The jitter is derived
// from state the loser already holds — a consumed draw value or an
// observed counter — never from a fresh draw, so the shared per-class
// probe stream is untouched and placement stays seed-deterministic. At
// one goroutine a CAS never loses, so this path never runs and the
// sequential engines are bit-for-bit unaffected; the first loss retries
// immediately (the common transient), and only repeat losers pay.
func backoffSpin(attempt int, jitter uint32) {
	if attempt < 2 {
		return
	}
	exp := uint(attempt)
	if exp > 6 {
		exp = 6
	}
	spins := 1<<exp + int(jitter&uint32(1<<exp-1))
	acc := uint64(0)
	for i := 0; i < spins; i++ {
		acc += uint64(i)
	}
	backoffSink.Store(acc)
	if attempt > 3 {
		// Heavily contended (or oversubscribed cores): hand the CPU to
		// the racing winner instead of spinning against it.
		runtime.Gosched()
	}
}

// reserveBatch reserves up to want units of class occupancy (at least
// one) with one bounded CAS increment: the threshold test and the whole
// increment are one atomic step, so inUse can never overshoot maxInUse
// even mid-race. Near the threshold it takes whatever partial batch
// remains; at it, it drains the remote-free ring and retries if that
// freed anything, or else reports out of memory (Figure 2, line 6).
// Sequential (non-Concurrent) heaps run the same bounded increment
// without the RMW, which their one-goroutine contract makes exact.
func (h *Heap) reserveBatch(c, want int) (int, error) {
	cl := &h.classes[c]
	replays := 0
	for {
		cur := atomic.LoadInt64(&cl.inUse)
		if avail := cl.maxInUse - cur; avail > 0 {
			take := int64(want)
			if take > avail {
				take = avail
			}
			if !h.atomicStats {
				cl.inUse = cur + take
				return int(take), nil
			}
			if atomic.CompareAndSwapInt64(&cl.inUse, cur, cur+take) {
				if replays > 0 {
					h.addStat(&h.stats.CASRetries, uint64(replays))
				}
				return int(take), nil
			}
			replays++
			backoffSpin(replays, uint32(cur))
			continue
		}
		// At threshold: absorb queued remote frees before failing
		// (DESIGN.md §12).
		if h.remote != nil && h.drainRemote(c) > 0 {
			continue
		}
		return 0, heap.ErrOutOfMemory
	}
}

// unreserve hands n units of class occupancy back: the one occupancy
// release of every free route and of every abandoned reservation.
func (h *Heap) unreserve(cl *sizeClass, n int) {
	if h.atomicStats {
		atomic.AddInt64(&cl.inUse, -int64(n))
	} else {
		cl.inUse -= int64(n)
	}
}

// fillClassRandom fills an allocated object from the class stream,
// round-tripping the packed state through an MWC value. RandomFill heaps
// are sequential, so the caller owns the stream it has just committed.
func (h *Heap) fillClassRandom(cl *sizeClass, ptr heap.Ptr, n int) error {
	r := rng.NewSeeded(cl.randState)
	err := h.fillRandom(r, ptr, n)
	cl.randState = r.Seed()
	return err
}

// fillRandom fills an allocated object in place with random values drawn
// from the given stream (Figure 2, DieHardMalloc lines 18-20): one draw
// per 4-byte word, then one per byte of a ragged tail. Every chunk of
// the walk but the object's last is a multiple of 4 bytes (small slots
// are size-aligned and cross a page only when page-aligned; large
// objects are page-aligned), so the stream advances as one word loop
// over the object would. The caller owns r: under largeMu, or on a
// sequential heap's class.
func (h *Heap) fillRandom(r *rng.MWC, ptr heap.Ptr, n int) error {
	h.addStat(&h.stats.WorkUnits, uint64(n/8+1)*heap.WorkRandomFill)
	return h.space.Walk(ptr, n, vmem.AccessStore, func(_ uint64, b []byte) (int, bool) {
		r.Fill(b)
		for i := len(b) &^ 3; i < len(b); i++ {
			b[i] = byte(r.Next())
		}
		return len(b), true
	})
}

// allocateLargeObject serves requests above MaxObjectSize from a
// dedicated guarded mapping and records it for validity checking by Free
// (§4.1, §4.3).
func (h *Heap) allocateLargeObject(size int) (heap.FatPtr, error) {
	npages := (size + vmem.PageSize - 1) / vmem.PageSize
	h.largeMu.Lock()
	base, err := h.space.MapGuarded(size)
	if err != nil {
		h.largeMu.Unlock()
		h.addStat(&h.stats.FailedMallocs, 1)
		return heap.FatPtr{}, err
	}
	lo := largeObject{
		size:      size,
		mapBase:   base - vmem.PageSize,
		mapLength: (npages + 2) * vmem.PageSize,
	}
	if h.opts.GenTags {
		// Large objects carry a 64-bit monotonic generation (always odd,
		// like every issued tag): at one allocation per nanosecond the
		// counter would take centuries to wrap, so large tags need no
		// retirement scheme.
		lo.gen = h.largeGen*2 + 1
		h.largeGen++
	}
	h.large[base] = lo
	var fillErr error
	if h.opts.RandomFill {
		fillErr = h.fillRandom(&h.largeRand, base, size)
	}
	h.largeMu.Unlock()
	if fillErr != nil {
		return heap.FatPtr{}, fillErr
	}
	h.addStat(&h.stats.WorkUnits, heap.WorkMmap)
	h.countMallocs(1, uint64(size), uint64(npages*vmem.PageSize))
	if h.opts.OnAlloc != nil {
		h.opts.OnAlloc(base, size, npages*vmem.PageSize)
	}
	return heap.FatPtr{Addr: base, Gen: lo.gen}, nil
}

// Free releases an allocation (DieHardFree, Figure 2). Invalid and double
// frees are detected and silently ignored: the offset must be an exact
// multiple of the object size, and the object must currently be marked
// allocated. Free never fails. Safe for concurrent use.
func (h *Heap) Free(p heap.Ptr) error {
	_, err := h.free(heap.FatPtr{Addr: p})
	return err
}

// free is the one free path. fp.Gen is the tag a checked free carries —
// already admitted by a fat entry point's gate (fatGate) — or 0 for an
// unchecked free. accepted reports whether this call won the release
// (or retired the slot).
func (h *Heap) free(fp heap.FatPtr) (accepted bool, err error) {
	p := fp.Addr
	if p == heap.Null {
		return true, nil // free(NULL) is a no-op in C
	}
	cl, sub, local := h.find(p)
	if cl == nil {
		return h.freeLarge(fp)
	}
	if (p-sub.base)&cl.mask != 0 {
		h.addStat(&h.stats.IgnoredFrees, 1) // misaligned interior pointer: ignore
		return false, nil
	}
	if sub.gens != nil {
		// Tagged heap (DESIGN.md §15): the generation word is the free
		// arbiter — of racing frees of one incarnation, exactly one wins
		// the odd→even transition and the rest lose here.
		switch h.genFree(sub, local, uint32(fp.Gen)) {
		case genLose:
			h.rejectFree(p, fp.Gen)
			return false, nil
		case genRetireOut:
			h.addStat(&h.stats.Retired, 1)
			return true, nil
		}
	}
	// Untagged, the bit-clear arbitrates: of any set of racing frees of
	// this pointer, exactly one clears the bit and the rest are double
	// frees. After a won generation transition it cannot fail.
	if !sub.release(local, h.atomicStats) {
		h.addStat(&h.stats.IgnoredFrees, 1) // double free: ignore
		return false, nil
	}
	h.unreserve(cl, 1)
	h.addStat(&h.stats.WorkUnits, heap.WorkBitmap)
	h.countFrees(1, uint64(cl.size))
	if h.trace != nil {
		h.trace.Emit(obs.EvFree, p)
	}
	if h.opts.OnFree != nil {
		h.opts.OnFree(p, cl.size)
	}
	return true, nil
}

// rejectFree counts a free that lost: a stale free if it carried a tag,
// the §4.3 ignore if it did not.
func (h *Heap) rejectFree(p heap.Ptr, gen uint64) {
	if gen != 0 {
		h.noteStaleFree(p, gen)
		return
	}
	h.addStat(&h.stats.IgnoredFrees, 1)
}

// freeLarge frees the large object at fp.Addr: removed from the table
// (delete-first under largeMu, so exactly one racing free wins), hook,
// unmap, accounting. A pointer to no live large object — not ours, or
// already freed — is rejected, and so is a checked free whose tag is
// not the object's.
func (h *Heap) freeLarge(fp heap.FatPtr) (bool, error) {
	p := fp.Addr
	h.largeMu.Lock()
	lo, ok := h.large[p]
	if !ok || fp.Gen != 0 && lo.gen != fp.Gen {
		h.largeMu.Unlock()
		h.rejectFree(p, fp.Gen)
		return false, nil
	}
	delete(h.large, p)
	h.largeMu.Unlock()
	usable := (lo.mapLength/vmem.PageSize - 2) * vmem.PageSize
	if h.opts.OnFree != nil {
		// Fire while the guarded mapping is still live, so a
		// detection hook can audit the trailing-page slack that
		// disappears with the unmap (the large-object canary gap).
		h.opts.OnFree(p, usable)
	}
	if err := h.space.Unmap(lo.mapBase, lo.mapLength); err != nil {
		// Cannot happen unless internal state is corrupt; re-list
		// the object so accounting stays consistent and the free
		// can be retried.
		h.largeMu.Lock()
		h.large[p] = lo
		h.largeMu.Unlock()
		return true, err
	}
	h.addStat(&h.stats.WorkUnits, heap.WorkMmap)
	h.countFrees(1, uint64(usable))
	if h.trace != nil {
		h.trace.Emit(obs.EvFree, p)
	}
	return true, nil
}

// Quarantine frees p into the heap's quarantine FIFO instead of
// releasing it: the delayed-reuse countermeasure for dangling-pointer
// culprits (DESIGN.md §13). A held slot keeps its bitmap bit and its
// occupancy reservation, so the probe stream never re-issues it and a
// stale write lands on memory no new owner holds. It is released — bit
// cleared, counters updated, OnFree fired — oldest first when the FIFO
// passes QuarantineCap, or at FlushQuarantine.
//
// Admission is Free's. Null, large, foreign and misaligned pointers
// take Free's path. On a tagged heap the unchecked generation
// transition runs first, so a slot is held at most once per
// incarnation: a lost transition counts as Free counts it, and a slot
// at the generation ceiling retires instead. This is the exact mode.
//
// On an untagged heap a slot whose bit is already clear counts one
// IgnoredFree, but a held slot's bit is set, so a second Quarantine of
// it holds it again and a Free of it clears the bit at once. Either way
// Malloc can re-issue the slot while an entry for it is still in the
// FIFO, and that entry's release then frees the new occupant: the
// bit-clear cannot tell one incarnation from the next. Only when no
// malloc re-issues the slot between the releases does the bit-clear
// arbitrate, all but one release counting an IgnoredFree. GenTags
// closes the hole. Safe for concurrent use.
func (h *Heap) Quarantine(p heap.Ptr) error {
	cl, sub, local := h.find(p) // null resolves to no class
	if cl == nil || (p-sub.base)&cl.mask != 0 {
		return h.Free(p)
	}
	if sub.gens != nil {
		switch h.genFree(sub, local, 0) {
		case genLose:
			h.rejectFree(p, 0)
			return nil
		case genRetireOut:
			h.addStat(&h.stats.Retired, 1)
			return nil
		}
	} else if !sub.getAtomic(local) {
		h.addStat(&h.stats.IgnoredFrees, 1) // double free: ignore
		return nil
	}
	h.quarantineHold(p)
	return nil
}

// quarantineHold enqueues an admitted Quarantine into the FIFO,
// releasing the oldest held slot first when the cap is reached so the
// quarantine's occupancy debt stays bounded at QuarantineCap. Only the
// queue bookkeeping runs under the mutex; the eviction's bit-clear
// happens outside it on the normal lock-free path.
func (h *Heap) quarantineHold(p heap.Ptr) {
	h.addStat(&h.stats.Quarantined, 1)
	if h.trace != nil {
		h.trace.Emit(obs.EvQuarantine, p)
	}
	var evict heap.Ptr
	var evicting bool
	h.quarMu.Lock()
	if len(h.quarantine)-h.quarHead >= h.opts.QuarantineCap {
		evict = h.quarantine[h.quarHead]
		h.quarHead++
		evicting = true
	}
	h.quarantine = append(h.quarantine, p)
	if h.quarHead > 64 && h.quarHead*2 >= len(h.quarantine) {
		// Compact the consumed prefix so the backing array stays
		// proportional to the live queue, amortized O(1) per enqueue.
		n := copy(h.quarantine, h.quarantine[h.quarHead:])
		h.quarantine = h.quarantine[:n]
		h.quarHead = 0
	}
	h.quarMu.Unlock()
	if evicting {
		h.releaseHeld(evict)
	}
}

// releaseHeld performs the deferred free of a quarantined slot: the
// normal clear path of Free, minus the admission Quarantine already ran
// (on a tagged heap, the generation transition). Exactly one release of
// any set of duplicate enqueues wins the bit-clear; the rest count
// IgnoredFrees, preserving §4.3's double-free accounting across the
// deferral. OnFree fires here — not at hold time — so a detection layer
// re-arms its canary exactly when the slot truly rejoins free space.
func (h *Heap) releaseHeld(p heap.Ptr) bool {
	cl, sub, local := h.find(p)
	// A nil class is unreachable for pointers Quarantine resolved;
	// the check is kept for defense in depth.
	if cl == nil || !sub.release(local, h.atomicStats) {
		h.addStat(&h.stats.IgnoredFrees, 1)
		return false
	}
	h.unreserve(cl, 1)
	h.addStat(&h.stats.WorkUnits, heap.WorkBitmap)
	h.addStat(&h.stats.QuarantineOut, 1)
	h.countFrees(1, uint64(cl.size))
	if h.trace != nil {
		h.trace.Emit(obs.EvFree, p)
	}
	if h.opts.OnFree != nil {
		h.opts.OnFree(p, cl.size)
	}
	return true
}

// FlushQuarantine releases every held slot oldest-first and returns how
// many actually freed (duplicates of already-released slots are ignored,
// not counted). Callers flush before occupancy-sensitive audits that
// expect quarantined slots returned to free space.
func (h *Heap) FlushQuarantine() int {
	released := 0
	for {
		h.quarMu.Lock()
		if h.quarHead >= len(h.quarantine) {
			h.quarantine = h.quarantine[:0]
			h.quarHead = 0
			h.quarMu.Unlock()
			return released
		}
		p := h.quarantine[h.quarHead]
		h.quarHead++
		h.quarMu.Unlock()
		if h.releaseHeld(p) {
			released++
		}
	}
}

// QuarantineLen reports the number of entries currently held in the
// quarantine FIFO (duplicate enqueues included).
func (h *Heap) QuarantineLen() int {
	h.quarMu.Lock()
	n := len(h.quarantine) - h.quarHead
	h.quarMu.Unlock()
	return n
}

// find locates the size class, subregion, and slot index containing p in
// O(1) through the page index, which is read lock-free. The slot index
// is the floor of the offset; the caller checks alignment.
func (h *Heap) find(p heap.Ptr) (*sizeClass, *subregion, int) {
	idx := h.pageIdx
	pn := p/vmem.PageSize - idx.basePn
	if pn >= uint64(len(idx.ord)) { // also catches p below the heap (wraps)
		return nil, nil, 0
	}
	sub := idx.subs[idx.ord[pn]]
	if sub == nil {
		return nil, nil, 0
	}
	off := p - sub.base
	if off >= uint64(sub.slots)<<sub.shift {
		// Tail of the subregion's last page: mapped, but no slot.
		return nil, nil, 0
	}
	return sub.cl, sub, int(off >> sub.shift)
}

// SizeOf reports the usable size of the allocated object starting exactly
// at p.
func (h *Heap) SizeOf(p heap.Ptr) (int, bool) {
	h.largeMu.Lock()
	if lo, ok := h.large[p]; ok {
		h.largeMu.Unlock()
		return lo.size, true
	}
	h.largeMu.Unlock()
	cl, sub, local := h.find(p)
	if cl == nil || (p-sub.base)&cl.mask != 0 {
		return 0, false
	}
	if !sub.getAtomic(local) {
		return 0, false
	}
	return cl.size, true
}

// ObjectBounds resolves any pointer into the heap (including interior
// pointers) to the containing allocated object's start and size. This is
// the primitive behind DieHard's checked replacements for strcpy and
// strncpy (§4.4): the available space from a destination pointer to the
// end of its object bounds the copy length.
func (h *Heap) ObjectBounds(p heap.Ptr) (start heap.Ptr, size int, ok bool) {
	h.largeMu.Lock()
	for base, lo := range h.large {
		if p >= base && p < base+uint64(lo.size) {
			h.largeMu.Unlock()
			return base, lo.size, true
		}
	}
	h.largeMu.Unlock()
	cl, sub, local := h.find(p)
	if cl == nil {
		return 0, 0, false
	}
	if !sub.getAtomic(local) {
		return 0, 0, false
	}
	return sub.base + uint64(local)<<cl.shift, cl.size, true
}

// SlotAt resolves any address inside the small-object heap to its
// containing slot: the slot's base address, its size-class object size,
// and whether it currently holds a live object. This is the O(1)
// page-index primitive behind the detection engine's neighbor lookups
// (internal/detect): evidence records name the nearest live and free
// slots around a damaged byte. ok is false for addresses outside the
// small-object subregions (holes, guards, large objects).
func (h *Heap) SlotAt(addr heap.Ptr) (base heap.Ptr, size int, live, ok bool) {
	cl, sub, local := h.find(addr)
	if cl == nil {
		return 0, 0, false, false
	}
	return sub.base + uint64(local)<<cl.shift, cl.size, sub.getAtomic(local), true
}

// FreeSlots calls fn with the base address of every currently free slot
// of class c, in ascending address order, until fn returns false. The
// class bitmap is snapshotted before the walk, so fn may access heap
// memory freely; the snapshot is a point-in-time view. The detection
// engine's full-heap canary sweep is built on this walk.
func (h *Heap) FreeSlots(c int, fn func(p heap.Ptr) bool) {
	sub := h.classes[c].sub
	// Words are copied with atomic loads, so a sweep racing CAS
	// claimants is consistent per word (the callers that need an exact
	// view — the detection engine — are sequential anyway).
	words := make([]uint64, len(sub.bits))
	for w := range sub.bits {
		words[w] = atomic.LoadUint64(&sub.bits[w])
	}
	for i := 0; i < sub.slots; i++ {
		if words[i>>6]&(1<<(i&63)) == 0 {
			if !fn(sub.base + uint64(i)<<sub.shift) {
				return
			}
		}
	}
}

// InHeap reports whether p lies within the small-object heap regions,
// the first test of the checked library functions (§4.4). Lock-free.
func (h *Heap) InHeap(p heap.Ptr) bool {
	cl, _, _ := h.find(p)
	return cl != nil
}

// ownsLarge reports whether p is a live large object of this heap,
// used by ShardedHeap to route frees to the owning shard.
func (h *Heap) ownsLarge(p heap.Ptr) bool {
	h.largeMu.Lock()
	_, ok := h.large[p]
	h.largeMu.Unlock()
	return ok
}

// Mem returns the simulated address space backing this heap.
func (h *Heap) Mem() *vmem.Space { return h.space }

// Close ends the heap's lifetime: it closes the heap's address space
// (vmem Space.Close), whose page frames go to a process-wide pool for
// later heaps. Afterwards every access through Mem faults with the
// closed-space reason. A ShardedHeap's shard leaves the shared space
// open: only a heap that built its space closes it. Close needs that no
// access runs concurrently with it (DESIGN.md §7); a second Close does
// nothing.
func (h *Heap) Close() {
	if h.ownsSpace {
		h.space.Close()
	}
}

// Stats returns the allocator counters, updated in place (atomically
// when the heap is Concurrent); under concurrent use, read them only at
// quiescence.
func (h *Heap) Stats() *heap.Stats { return &h.stats }

// Name identifies the allocator in experiment reports.
func (h *Heap) Name() string {
	if h.opts.RandomFill {
		return "diehard-r"
	}
	return "diehard"
}

// Seed returns the seed of the allocator's random stream, recorded so any
// run can be reproduced exactly.
func (h *Heap) Seed() uint64 { return h.seed }

// M returns the configured heap expansion factor.
func (h *Heap) M() float64 { return h.opts.M }

// ClassSlots returns the total and maximum-usable slot counts of class c,
// exposed for the analytical validation experiments.
func (h *Heap) ClassSlots(c int) (total, maxInUse int) {
	cl := &h.classes[c]
	return cl.sub.slots, int(cl.maxInUse)
}

// ClassInUse returns the number of live objects in class c: an atomic
// read of the class occupancy counter, cheap enough that the sharded
// front end consults it on every routed malloc.
func (h *Heap) ClassInUse(c int) int {
	return int(atomic.LoadInt64(&h.classes[c].inUse))
}

// ClassMallocs returns the cumulative allocation count of class c,
// exposed for workload-characterization experiments (e.g. verifying the
// wide size mix of the 300.twolf analog).
func (h *Heap) ClassMallocs(c int) uint64 {
	return atomic.LoadUint64(&h.classes[c].mallocs)
}

// ClassBase returns the base address of class c's region, exposed for
// tests that aim overflow writes at precise heap locations.
func (h *Heap) ClassBase(c int) heap.Ptr {
	return h.classes[c].sub.base
}

// LargeObjects returns the number of live large objects.
func (h *Heap) LargeObjects() int {
	h.largeMu.Lock()
	defer h.largeMu.Unlock()
	return len(h.large)
}

// CheckInvariants verifies the segregated metadata against itself: per-
// class live counts match bitmap population, thresholds are respected,
// and no bit is set past a class's last slot. Property tests call this
// after randomized (including concurrent) workloads. The
// bitmap-population == inUse comparison is exact only at quiescence —
// every CAS winner pairs its bit with a counter reservation, but the
// two updates are not one atomic step — which is precisely when the
// stress tests call it. Every
// registered magazine is drained first (the drain barrier of DESIGN.md
// §11), then the remote-free ring (§12) — queued remote frees hold
// their bit and occupancy unit until drained, so they never break the
// popcount comparison, but draining them here restores exact Frees/
// LiveObjects counters and exact FreeSlots walks at the barrier. Like
// the popcount comparison, draining requires the magazines' owner
// goroutines to be quiescent.
func (h *Heap) CheckInvariants() error { return h.checkInvariants(0) }

// CheckInvariantsSlack is CheckInvariants with the documented §12
// allowance for UNTAGGED heaps under deliberate double-free injection:
// a double free whose second half lands after the slot was reallocated
// or magazine-pre-claimed is indistinguishable from a valid free in any
// bitmap allocator, so each such straddle can skew the Mallocs/Frees/
// LiveObjects ledger by one against the (always exact) bitmap
// population. So can an aligned wild free on a Concurrent heap that
// lands in a claim's window, between the slot's bitmap CAS and the
// stream commit, when the commit then loses (DESIGN.md §10): the free
// is counted, the claim shrinks by the slot, and no malloc stands
// behind the count. The structural invariants — per-class popcount == inUse,
// bitmap/metadata consistency — take NO slack; only the two aggregate
// stats cross-checks tolerate an absolute skew of at most `slack`
// (callers pass their injected double-free count). Generation-tagged
// heaps never need this: the gens CAS rejects the straddling half as
// stale (DESIGN.md §15), so tagged callers use the exact barrier.
func (h *Heap) CheckInvariantsSlack(slack uint64) error { return h.checkInvariants(slack) }

func (h *Heap) checkInvariants(slack uint64) error {
	h.DrainMagazines()
	h.drainRemote(-1)
	inUse := 0
	for c := range h.classes {
		cl := &h.classes[c]
		if err := cl.check(c); err != nil {
			return err
		}
		inUse += int(atomic.LoadInt64(&cl.inUse))
	}
	// Counter cross-check (atomic snapshot, not direct field reads — the
	// StatsSnapshot discipline): at a post-drain barrier the aggregate
	// counters must balance exactly. Mallocs − Frees = LiveObjects by
	// construction of every count path, so a torn or unsynchronized
	// update surfaces here; and the bitmap population just verified per
	// class must equal the live small objects plus quarantined holds
	// (held slots keep their bit) when large objects are added in.
	st := h.StatsSnapshot()
	if skew := int64(st.Mallocs-st.Frees) - int64(st.LiveObjects); absSkew(skew) > slack {
		return fmt.Errorf("stats: mallocs %d - frees %d != live objects %d",
			st.Mallocs, st.Frees, st.LiveObjects)
	}
	h.largeMu.Lock()
	large := len(h.large)
	h.largeMu.Unlock()
	if skew := int64(inUse+large) - int64(st.LiveObjects); absSkew(skew) > slack {
		return fmt.Errorf("stats: class occupancy %d + large %d != live objects %d",
			inUse, large, st.LiveObjects)
	}
	if h.trace != nil {
		h.trace.Emit(obs.EvBarrier, st.LiveObjects)
	}
	return nil
}

func absSkew(d int64) uint64 {
	if d < 0 {
		return uint64(-d)
	}
	return uint64(d)
}

// StatsSnapshot returns a consistent-at-quiescence copy of the
// counters: atomically loaded for Concurrent heaps (a direct
// `*h.Stats()` copy races with the atomic writers), a plain copy for
// sequential ones.
func (h *Heap) StatsSnapshot() heap.Stats {
	if h.atomicStats {
		return h.stats.SnapshotAtomic()
	}
	return h.stats
}

// coreGauges is the one table of core.* gauges, each naming the Stats
// counter it reads: Heap.PublishMetrics binds it to one heap's
// counters, ShardedHeap.PublishMetrics to their sum over the shards.
var coreGauges = []struct {
	name  string
	field func(*heap.Stats) *uint64
}{
	{"core.mallocs", func(st *heap.Stats) *uint64 { return &st.Mallocs }},
	{"core.frees", func(st *heap.Stats) *uint64 { return &st.Frees }},
	{"core.failed_mallocs", func(st *heap.Stats) *uint64 { return &st.FailedMallocs }},
	{"core.ignored_frees", func(st *heap.Stats) *uint64 { return &st.IgnoredFrees }},
	{"core.live_objects", func(st *heap.Stats) *uint64 { return &st.LiveObjects }},
	{"core.live_bytes", func(st *heap.Stats) *uint64 { return &st.LiveBytes }},
	{"core.peak_live_bytes", func(st *heap.Stats) *uint64 { return &st.PeakLiveBytes }},
	{"core.probes", func(st *heap.Stats) *uint64 { return &st.Probes }},
	{"core.cas_retries", func(st *heap.Stats) *uint64 { return &st.CASRetries }},
	{"core.remote_frees", func(st *heap.Stats) *uint64 { return &st.RemoteFrees }},
	{"core.remote_drains", func(st *heap.Stats) *uint64 { return &st.RemoteDrains }},
	{"core.quarantined", func(st *heap.Stats) *uint64 { return &st.Quarantined }},
	{"core.quarantine_released", func(st *heap.Stats) *uint64 { return &st.QuarantineOut }},
	{"core.stale_frees", func(st *heap.Stats) *uint64 { return &st.StaleFrees }},
	{"core.retired_slots", func(st *heap.Stats) *uint64 { return &st.Retired }},
}

// PublishMetrics registers the heap's counters as gauges in reg under
// the core.* namespace. Gauges pull atomically at snapshot time, so a
// live scrape of a Concurrent heap is race-free; the usual quiescent-
// exactness contract applies to cross-counter consistency. Labels
// (e.g. shard=N) distinguish multiple heaps in one registry.
func (h *Heap) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	for _, g := range coreGauges {
		f := g.field(&h.stats)
		reg.Gauge(g.name, func() float64 { return float64(atomic.LoadUint64(f)) }, labels...)
	}
}

func (cl *sizeClass) check(c int) error {
	sub := cl.sub
	pop := 0
	for w := range sub.bits {
		pop += bits.OnesCount64(atomic.LoadUint64(&sub.bits[w]))
	}
	// Tagged heaps: a clear bit means the slot's generation word is
	// even (free parity) — clears only follow a won odd→even
	// transition, and claims bump back to odd before any free can
	// race. (The converse does not hold: a bit-set slot may carry an
	// even word while quarantined after a won transition, or the odd
	// retirement sentinel.) Exact at quiescence, like the popcount.
	if sub.gens != nil {
		for w := range sub.bits {
			word := atomic.LoadUint64(&sub.bits[w])
			lim := sub.slots - w*64
			if lim > 64 {
				lim = 64
			}
			for b := 0; b < lim; b++ {
				if word&(1<<uint(b)) != 0 {
					continue
				}
				if g := atomic.LoadUint32(&sub.gens[w*64+b]); g&1 != 0 {
					return fmt.Errorf("class %d: free slot %d has odd generation %#x", c, w*64+b, g)
				}
			}
		}
	}
	// Bits beyond the slot count must be zero.
	if tail := sub.slots & 63; tail != 0 {
		last := atomic.LoadUint64(&sub.bits[len(sub.bits)-1])
		if last>>uint(tail) != 0 {
			return fmt.Errorf("class %d: bitmap bits set beyond slot count", c)
		}
	}
	inUse := int(atomic.LoadInt64(&cl.inUse))
	if pop != inUse {
		return fmt.Errorf("class %d: inUse %d != bitmap population %d", c, inUse, pop)
	}
	if inUse > int(cl.maxInUse) {
		return fmt.Errorf("class %d: inUse %d exceeds threshold %d", c, inUse, cl.maxInUse)
	}
	return nil
}
