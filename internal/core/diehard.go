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
// CAS increment, so the 1/M threshold can never be overshot. The
// per-class mutex survives only for adaptive region growth. Pointer
// resolution for Free/SizeOf/ObjectBounds reads the page index
// lock-free. Concurrent use requires Options.Concurrent, which switches
// the aggregate Stats and the space's access accounting to atomic
// updates; heaps built without it keep unsynchronized counters and must
// be confined to one goroutine at a time, as the sequential experiment
// trials and replicated-mode replicas are.
package core

import (
	"encoding/binary"
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
	// Adaptive enables the paper's future-work extension (§9): regions
	// start small and double on demand up to the per-class cap, trading
	// early error-masking probability for reserved address space.
	Adaptive bool
	// AdaptiveInitial is the initial per-class region size in bytes when
	// Adaptive is set. Defaults to 256 KB.
	AdaptiveInitial int
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
	// = free): every claim bumps even→odd after winning its bitmap CAS,
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
	// allocating goroutine, outside the class locks, before the pointer
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
	if v.AdaptiveInitial == 0 {
		v.AdaptiveInitial = 256 << 10
	}
	if v.QuarantineCap <= 0 {
		v.QuarantineCap = DefaultQuarantineCap
	}
	return v
}

// subregion is one mapped stretch of a size class. Non-adaptive heaps
// have exactly one subregion per class; adaptive heaps append doubled
// subregions as demand grows. The class back-pointer and the shift
// duplicate (log2 of the class's object size) let a pointer-to-
// subregion resolved through the page index compute its slot without a
// second indirection. A concurrent heap claims and releases bits by CAS
// and reads them with atomic loads (DESIGN.md §10); a sequential
// (non-Concurrent) heap is confined to one goroutine, where the plain
// accessors are exact without any fence. On amd64 an atomic load is an
// ordinary MOV, so the read paths use atomic loads on both — the cost
// shows up only in stores, which Go compiles to XCHG. base, slots, and
// shift are immutable after construction.
type subregion struct {
	base  uint64
	slots int
	bits  []uint64 // allocation bitmap: one bit per slot, segregated metadata
	// gens is the per-slot generation word (Options.GenTags, DESIGN.md
	// §15), nil on untagged heaps. Parity encodes liveness (odd =
	// allocated): claims bump after winning the bitmap CAS, frees CAS
	// odd→even before clearing the bit — on tagged heaps this word, not
	// the bit, arbitrates racing frees. Segregated metadata like the
	// bitmap: heap writes cannot reach it, and placement is unchanged.
	gens  []uint32
	cl    *sizeClass
	h     *Heap // owning heap: the shard a magazine-buffered free settles on
	shift uint
}

func (s *subregion) get(i int) bool { return s.bits[i>>6]&(1<<(i&63)) != 0 }
func (s *subregion) set(i int)      { s.bits[i>>6] |= 1 << (i & 63) }

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

// classRegions is a size class's immutable subregion list plus its slot
// total, published as one unit behind an atomic pointer so the lock-free
// probe loop always sees a slot count consistent with the subregions it
// indexes into. Adaptive growth publishes a copy; non-adaptive classes
// publish exactly once, at construction.
type classRegions struct {
	subs       []*subregion
	totalSlots int
}

// locate maps a class-wide slot index to its subregion and local index.
// Non-adaptive heaps always hit the single-subregion fast path.
func (r *classRegions) locate(idx int) (*subregion, int) {
	if idx < r.subs[0].slots {
		return r.subs[0], idx
	}
	idx -= r.subs[0].slots
	for i := 1; i < len(r.subs); i++ {
		if idx < r.subs[i].slots {
			return r.subs[i], idx
		}
		idx -= r.subs[i].slots
	}
	panic("diehard: slot index out of range") // unreachable when invariants hold
}

// sizeClass holds the segregated metadata for one power-of-two region.
// The mutex is touched only by adaptive growth: probing draws from
// randState (the packed rng.Step stream), slots are claimed by bitmap
// CAS, and occupancy is reserved with a bounded CAS increment on inUse
// so the 1/M threshold holds at every instant, not just at quiescence —
// with the CAS machinery engaged only when Options.Concurrent declares
// real multi-goroutine use; sequential heaps run the same protocol
// fence-free (plain fields + sync/atomic function calls, so each heap
// pays only for the ordering it needs).
type sizeClass struct {
	mu        sync.Mutex // adaptive growth
	randState uint64     // packed MWC probe/fill stream (rng.Step)
	fillBuf   []byte     // RandomFill staging (sequential heaps only)

	size     int
	shift    uint                         // log2(size), for divisions on the hot path
	mask     uint64                       // size - 1, for alignment checks on the hot path
	regions  atomic.Pointer[classRegions] // subregions + slot total, copy-on-write
	inUse    int64                        // live slots; never exceeds maxInUse
	maxInUse atomic.Int64                 // threshold: floor(totalSlots / M)
	capSlots int                          // adaptive growth stops here
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
// phase. A heap builds it once, after mapping all its classes; the table
// is immutable once published and adaptive growth publishes a copy, so
// Free, SizeOf, ObjectBounds, and InHeap read it lock-free. A heap has at
// most a few dozen subregions per class (growth doubles a class up to
// its cap), far below the 2^16 ordinals.
type pageIndex struct {
	basePn uint64
	ord    []uint16
	subs   []*subregion // subs[0] is nil
}

// extendIndex returns a copy of idx (nil for a heap's first index) that
// also maps every page of the given subregions. Subregion bases are
// handed out in increasing address order, so the table only ever grows at
// the high end; pages mapped in between for other purposes (guards, large
// objects, a sibling shard's regions) keep ordinal 0.
func extendIndex(idx *pageIndex, add ...*subregion) *pageIndex {
	if idx == nil {
		idx = &pageIndex{basePn: add[0].base / vmem.PageSize, subs: []*subregion{nil}}
	}
	// The new table must cover both the new subregions and everything
	// already published: under concurrent adaptive growth, the class
	// that mapped the lower addresses may publish after the one that
	// mapped the higher ones, so the new subregions alone can be short
	// of the current coverage.
	need := uint64(len(idx.ord))
	for _, sub := range add {
		need = max(need, sub.endPn()-idx.basePn)
	}
	next := &pageIndex{
		basePn: idx.basePn,
		ord:    make([]uint16, need),
		// Full slice expression: append must copy, never write into the
		// published array.
		subs: idx.subs[:len(idx.subs):len(idx.subs)],
	}
	copy(next.ord, idx.ord)
	for _, sub := range add {
		o := uint16(len(next.subs))
		next.subs = append(next.subs, sub)
		for pn := sub.base/vmem.PageSize - next.basePn; pn < sub.endPn()-next.basePn; pn++ {
			next.ord[pn] = o
		}
	}
	return next
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
	seed        uint64
	atomicStats bool // Concurrent heaps maintain stats atomically
	classes     [NumClasses]sizeClass
	stats       heap.Stats

	largeMu   sync.Mutex
	large     map[heap.Ptr]largeObject
	largeRand rng.MWC // fill stream for large objects; under largeMu
	largeBuf  []byte  // under largeMu
	largeGen  uint64  // GenTags issue counter for large objects; under largeMu

	idxMu   sync.Mutex // serializes pageIdx publication on adaptive growth
	pageIdx atomic.Pointer[pageIndex]

	magMu     sync.Mutex // guards the magazine registry, not the magazines
	magazines map[*Magazine]struct{}

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
	// later via SetTrace). Nil = disabled; every emit site guards with
	// its own nil check so the disabled hot path is one branch.
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

func (h *Heap) countMalloc(size, rounded int) {
	if h.atomicStats {
		heap.CountMallocAtomic(&h.stats, size, rounded)
	} else {
		heap.CountMalloc(&h.stats, size, rounded)
	}
}

func (h *Heap) countFree(rounded int) {
	if h.atomicStats {
		heap.CountFreeAtomic(&h.stats, rounded)
	} else {
		heap.CountFree(&h.stats, rounded)
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
		h.space = vmem.NewSpace()
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
		fillRNG := master.Split()
		h.space.SetPageFiller(func(b []byte) {
			for i := 0; i+4 <= len(b); i += 4 {
				binary.LittleEndian.PutUint32(b[i:], fillRNG.Next())
			}
		})
	}

	var subs [NumClasses]*subregion
	for c := 0; c < NumClasses; c++ {
		size := MinObjectSize << c
		capSlots := perClass / size
		cl := &h.classes[c]
		cl.size = size
		cl.shift = uint(bits.TrailingZeros(uint(size)))
		cl.mask = uint64(size - 1)
		cl.capSlots = capSlots
		// Every class draws from its own stream, deterministically
		// derived from the master seed, so the probe sequence of one
		// class is independent of activity in the others — the property
		// that keeps placement deterministic per class allocation
		// sequence.
		cl.randState = master.Split().Seed()
		initial := capSlots
		if o.Adaptive {
			initial = o.AdaptiveInitial / size
			if initial < 1 {
				initial = 1
			}
			if initial > capSlots {
				initial = capSlots
			}
		}
		sub, err := h.mapSubregion(c, initial)
		if err != nil {
			return nil, err
		}
		subs[c] = sub
	}
	// One index for all twelve classes, then the region lists: nothing
	// can reach the heap before it is returned, so no order is needed.
	h.pageIdx.Store(extendIndex(nil, subs[:]...))
	for _, sub := range subs {
		h.publishSubregion(sub)
	}
	h.largeRand = *master.Split()
	return h, nil
}

// mapSubregion maps a new stretch of slots for class c, behind guard
// pages, and returns it unpublished.
func (h *Heap) mapSubregion(c, slots int) (*subregion, error) {
	cl := &h.classes[c]
	bytes := slots * cl.size
	if bytes < vmem.PageSize {
		bytes = vmem.PageSize
		slots = bytes / cl.size
	}
	base, err := h.space.MapGuarded(bytes)
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
	if h.opts.GenTags {
		sub.gens = make([]uint32, slots)
	}
	return sub, nil
}

// growSubregion maps a new stretch of slots for class c on adaptive
// growth and publishes it. The caller holds the class mutex. Publication
// order matters for the unlocked readers: the page
// index is extended first (so any pointer handed out of the new
// subregion resolves), then the region list (so probes can land there),
// and the threshold is raised last (so no occupancy is reserved for
// slots that are not yet probe-visible).
func (h *Heap) growSubregion(c, slots int) error {
	sub, err := h.mapSubregion(c, slots)
	if err != nil {
		return err
	}
	h.indexSubregion(sub)
	h.publishSubregion(sub)
	return nil
}

// publishSubregion appends sub to its class's region list and raises the
// class's 1/M threshold to match.
func (h *Heap) publishSubregion(sub *subregion) {
	cl := sub.cl
	next := &classRegions{totalSlots: sub.slots}
	if cur := cl.regions.Load(); cur != nil {
		next.subs = append(next.subs, cur.subs...)
		next.totalSlots += cur.totalSlots
	}
	next.subs = append(next.subs, sub)
	cl.regions.Store(next)
	cl.maxInUse.Store(int64(float64(next.totalSlots) / h.opts.M))
}

// indexSubregion publishes a copy of the page index that also maps sub's
// pages, serialized by idxMu so concurrent growth in different classes
// cannot lose updates.
func (h *Heap) indexSubregion(sub *subregion) {
	h.idxMu.Lock()
	h.pageIdx.Store(extendIndex(h.pageIdx.Load(), sub))
	h.idxMu.Unlock()
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
// tag the claim issued, 0 on an untagged heap.
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
	return h.mallocLockFree(ClassFor(size), size)
}

// mallocLockFree is the small-object malloc: a bounded CAS
// increment reserves occupancy below the 1/M threshold, then the probe
// loop draws slots from the class stream and claims the first free one
// by CASing its bitmap word (DESIGN.md §10). No mutex is touched unless
// the class must grow. Exactly one goroutine wins each slot, so the
// observation hooks fire exactly once per allocation.
//
// The stream advance is batched: the whole probe sequence draws against
// a register-resident copy of the packed state, and one CAS publishes
// the consumed draws. If the CAS fails a racing malloc advanced the
// stream first; the probe sequence replays from the fresh state (its
// candidate slot was never claimed, so nothing needs undoing). A lone
// goroutine therefore consumes exactly the draw sequence of the
// per-class-mutex reference engine the tests difference against — the
// determinism the campaign recordings pin — at one RMW instead of one
// per draw.
func (h *Heap) mallocLockFree(c, size int) (heap.FatPtr, error) {
	cl := &h.classes[c]
	if err := h.reserve(c); err != nil {
		h.addStat(&h.stats.FailedMallocs, 1)
		return heap.FatPtr{}, err
	}
	// Probe for a free slot. The region is at most 1/M full, so the
	// expected number of probes is 1/(1 - 1/M): two for M = 2 (§4.2).
	// The cap guards against metadata-accounting bugs, not against bad
	// luck; it is astronomically unlikely to trigger when invariants
	// hold. The region list is reloaded every replay so a probe
	// sequence spanning adaptive growth sees the fresh slots.
	// probes accumulates across replays: an abandoned attempt's probes
	// were work actually performed (and draws actually consumed by the
	// racing winner's stream advance notwithstanding, ours were real
	// bitmap examinations), so they are charged to Stats like every
	// other probe.
	var (
		sub     *subregion
		local   int
		probes  int
		replays int
		gen     uint32
	)
	for {
		st0 := atomic.LoadUint64(&cl.randState)
		st := st0
		regs := cl.regions.Load()
		n := uint32(regs.totalSlots)
		single := len(regs.subs) == 1
		rejectBelow := -n % n
		for {
			if probes >= 64*regs.totalSlots+64 {
				h.unreserve(cl, 1)
				return heap.FatPtr{}, &heap.CorruptionError{Detail: "diehard: no free slot found below fill threshold"}
			}
			probes++
			// Lemire multiply-shift with rejection, the reduction of
			// rng.Uint32n: every probe loop draws the identical stream.
			var v uint32
			st, v = rng.Step(st)
			m := uint64(v) * uint64(n)
			for uint32(m) < rejectBelow {
				st, v = rng.Step(st)
				m = uint64(v) * uint64(n)
			}
			if single {
				sub, local = regs.subs[0], int(m>>32)
			} else {
				sub, local = regs.locate(int(m >> 32))
			}
			if !sub.getAtomic(local) {
				break
			}
		}
		if !h.atomicStats {
			// Single-goroutine contract: no stream racer, no slot racer —
			// commit plainly and claim without fences.
			cl.randState = st
			sub.set(local)
			gen = h.genClaim(sub, local)
			cl.mallocs++
			if h.opts.RandomFill {
				// RandomFill heaps are sequential: the fill continues the
				// class stream just committed, right after this malloc's
				// probes, so each class's fill values are deterministic in
				// its own allocation order (Figure 2, DieHardMalloc lines
				// 18-20). Placed after the loop, the call slowed
				// BenchmarkGate's sequential 64 B pair by ~1%.
				if err := h.fillClassRandom(cl, sub.base+uint64(local)<<cl.shift, cl.size); err != nil {
					return heap.FatPtr{}, err
				}
			}
			break
		}
		if !atomic.CompareAndSwapUint64(&cl.randState, st0, st) {
			// Draws consumed by a racing malloc: replay. A class losing
			// repeatedly is contended — back off (bounded exponential +
			// jitter from the already-consumed local draw state) so the
			// losers stop replaying whole probe sequences against each
			// other; replays surface in Stats.CASRetries.
			replays++
			backoffSpin(replays, uint32(st)^uint32(st0>>32))
			continue
		}
		if sub.casSet(local) {
			// The generation bump needs no CAS: the slot's word is only
			// ever advanced even→odd by its casSet winner (us), and frees
			// reject even words, so the word is quiescent until we bump.
			gen = h.genClaim(sub, local)
			atomic.AddUint64(&cl.mallocs, 1)
			break
		}
		// The observed-free slot was claimed between the stream commit
		// and the bitmap CAS; draw again from the advanced stream.
	}
	ptr := sub.base + uint64(local)<<cl.shift
	h.addStat(&h.stats.Probes, uint64(probes))
	if replays > 0 {
		h.addStat(&h.stats.CASRetries, uint64(replays))
	}
	h.addStat(&h.stats.WorkUnits,
		heap.WorkSizeClass+uint64(probes)*heap.WorkProbe+heap.WorkBitmap)
	h.countMalloc(size, cl.size)
	if h.trace != nil {
		h.trace.Emit(obs.EvMalloc, ptr)
	}
	if h.opts.OnAlloc != nil {
		h.opts.OnAlloc(ptr, size, cl.size)
	}
	return heap.FatPtr{Addr: ptr, Gen: uint64(gen)}, nil
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

// reserve claims one unit of class occupancy with a bounded CAS
// increment: the threshold test and the increment are one atomic step,
// so inUse can never overshoot maxInUse even mid-race. At the threshold
// it falls into the growth engine (the one surviving use of the class
// mutex) and retries; non-adaptive heaps fail immediately (Figure 2,
// line 6). Sequential (non-Concurrent) heaps run the same bounded
// increment without the RMW, which their one-goroutine contract makes
// exact.
func (h *Heap) reserve(c int) error {
	cl := &h.classes[c]
	replays := 0
	for {
		cur := atomic.LoadInt64(&cl.inUse)
		if cur < cl.maxInUse.Load() {
			if !h.atomicStats {
				cl.inUse = cur + 1
				return nil
			}
			if atomic.CompareAndSwapInt64(&cl.inUse, cur, cur+1) {
				if replays > 0 {
					h.addStat(&h.stats.CASRetries, uint64(replays))
				}
				return nil
			}
			replays++
			backoffSpin(replays, uint32(cur))
			continue
		}
		// At threshold: the queued remote frees may be exactly the room
		// this class needs — drain them before growing or failing (the
		// mandatory malloc-miss drain of DESIGN.md §12). Retrying is
		// productive only if the drain won frees for *this* class.
		if h.remote != nil && h.drainRemote(c) > 0 {
			continue
		}
		if !h.opts.Adaptive {
			return heap.ErrOutOfMemory
		}
		if err := h.growClass(c); err != nil {
			return err
		}
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

// growClass doubles class c under its mutex (adaptive heaps only). The
// threshold is re-checked under the lock: if a racing grower or a free
// already made room, the grow is skipped and the caller's reservation
// loop retries.
func (h *Heap) growClass(c int) error {
	cl := &h.classes[c]
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if atomic.LoadInt64(&cl.inUse) < cl.maxInUse.Load() {
		return nil
	}
	regs := cl.regions.Load()
	if regs.totalSlots >= cl.capSlots {
		return heap.ErrOutOfMemory
	}
	grow := regs.totalSlots
	if regs.totalSlots+grow > cl.capSlots {
		grow = cl.capSlots - regs.totalSlots
	}
	return h.growSubregion(c, grow)
}

// fillClassRandom fills an allocated object from the class stream,
// round-tripping the packed state through an MWC value. RandomFill heaps
// are sequential, so the caller owns the stream it has just committed.
func (h *Heap) fillClassRandom(cl *sizeClass, ptr heap.Ptr, n int) error {
	r := rng.NewSeeded(cl.randState)
	err := h.fillRandom(r, &cl.fillBuf, ptr, n)
	cl.randState = r.Seed()
	return err
}

// fillRandom fills an allocated object with random values drawn from the
// given stream (Figure 2, DieHardMalloc lines 18-20). The caller owns r
// and buf: under largeMu, or on a sequential heap's class.
func (h *Heap) fillRandom(r *rng.MWC, buf *[]byte, ptr heap.Ptr, n int) error {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	for i := 0; i+4 <= n; i += 4 {
		binary.LittleEndian.PutUint32(b[i:], r.Next())
	}
	for i := n &^ 3; i < n; i++ {
		b[i] = byte(r.Next())
	}
	h.addStat(&h.stats.WorkUnits, uint64(n/8+1)*heap.WorkRandomFill)
	return h.space.WriteBytes(ptr, b)
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
		fillErr = h.fillRandom(&h.largeRand, &h.largeBuf, base, size)
	}
	h.largeMu.Unlock()
	if fillErr != nil {
		return heap.FatPtr{}, fillErr
	}
	h.addStat(&h.stats.WorkUnits, heap.WorkMmap)
	h.countMalloc(size, npages*vmem.PageSize)
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
	h.countFree(cl.size)
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
	h.countFree(usable)
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
// at the generation ceiling retires instead. On an untagged heap a
// slot whose bit is already clear counts one IgnoredFree; racing
// Quarantine calls of one live pointer may both hold it, and the
// release's bit-clear stays the one arbiter, so all but one release
// count an IgnoredFree. Safe for concurrent use.
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
	h.countFree(cl.size)
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
	idx := h.pageIdx.Load()
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
// class bitmaps are snapshotted under the class lock and walked outside
// it, so fn may access heap memory freely; the snapshot is a consistent
// point-in-time view. The detection engine's full-heap canary sweep is
// built on this walk.
func (h *Heap) FreeSlots(c int, fn func(p heap.Ptr) bool) {
	cl := &h.classes[c]
	cl.mu.Lock()
	type snap struct {
		base  uint64
		slots int
		bits  []uint64
	}
	// The mutex freezes the region list; bitmap words are copied with
	// atomic loads, so a sweep racing CAS claimants is consistent per
	// word (the callers that need an exact view — the detection engine —
	// are sequential anyway).
	regs := cl.regions.Load()
	snaps := make([]snap, len(regs.subs))
	for i, sub := range regs.subs {
		words := make([]uint64, len(sub.bits))
		for w := range sub.bits {
			words[w] = atomic.LoadUint64(&sub.bits[w])
		}
		snaps[i] = snap{base: sub.base, slots: sub.slots, bits: words}
	}
	shift := cl.shift
	cl.mu.Unlock()
	for _, s := range snaps {
		for i := 0; i < s.slots; i++ {
			if s.bits[i>>6]&(1<<(i&63)) == 0 {
				if !fn(s.base + uint64(i)<<shift) {
					return
				}
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
	return cl.regions.Load().totalSlots, int(cl.maxInUse.Load())
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

// ClassBase returns the base address of the first subregion of class c,
// exposed for tests that aim overflow writes at precise heap locations.
func (h *Heap) ClassBase(c int) heap.Ptr {
	return h.classes[c].regions.Load().subs[0].base
}

// LargeObjects returns the number of live large objects.
func (h *Heap) LargeObjects() int {
	h.largeMu.Lock()
	defer h.largeMu.Unlock()
	return len(h.large)
}

// CheckInvariants verifies the segregated metadata against itself: per-
// class live counts match bitmap population, thresholds are respected,
// and subregion accounting is consistent. Property tests call this after
// randomized (including concurrent) workloads; each class is checked
// under its own lock. The bitmap-population == inUse comparison is exact
// only at quiescence — every CAS winner pairs its bit with a counter
// reservation, but the two updates are not one atomic step — which is
// precisely when the stress tests call it. Every
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
// population. The structural invariants — per-class popcount == inUse,
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
		cl.mu.Lock()
		err := cl.checkLocked(c)
		cl.mu.Unlock()
		if err != nil {
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

// SetTrace installs (or removes, with nil) the flight-recorder ring.
// Install before the heap is shared between goroutines, or at a
// quiescent point: the field itself is not synchronized, by design —
// the disabled path must stay one plain nil check.
func (h *Heap) SetTrace(r *obs.Ring) { h.trace = r }

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

// PublishMetrics registers the heap's counters as gauges in reg under
// the core.* namespace. Gauges pull atomically at snapshot time, so a
// live scrape of a Concurrent heap is race-free; the usual quiescent-
// exactness contract applies to cross-counter consistency. Labels
// (e.g. shard=N) distinguish multiple heaps in one registry.
func (h *Heap) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	type g struct {
		name string
		f    *uint64
	}
	for _, m := range []g{
		{"core.mallocs", &h.stats.Mallocs},
		{"core.frees", &h.stats.Frees},
		{"core.failed_mallocs", &h.stats.FailedMallocs},
		{"core.ignored_frees", &h.stats.IgnoredFrees},
		{"core.live_objects", &h.stats.LiveObjects},
		{"core.live_bytes", &h.stats.LiveBytes},
		{"core.peak_live_bytes", &h.stats.PeakLiveBytes},
		{"core.probes", &h.stats.Probes},
		{"core.cas_retries", &h.stats.CASRetries},
		{"core.remote_frees", &h.stats.RemoteFrees},
		{"core.remote_drains", &h.stats.RemoteDrains},
		{"core.quarantined", &h.stats.Quarantined},
		{"core.quarantine_released", &h.stats.QuarantineOut},
		{"core.stale_frees", &h.stats.StaleFrees},
		{"core.retired_slots", &h.stats.Retired},
	} {
		f := m.f
		reg.Gauge(m.name, func() float64 { return float64(atomic.LoadUint64(f)) }, labels...)
	}
}

func (cl *sizeClass) checkLocked(c int) error {
	pop := 0
	slots := 0
	regs := cl.regions.Load()
	for _, sub := range regs.subs {
		slots += sub.slots
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
	}
	if slots != regs.totalSlots {
		return fmt.Errorf("class %d: totalSlots %d != sum of subregions %d", c, regs.totalSlots, slots)
	}
	inUse := int(atomic.LoadInt64(&cl.inUse))
	maxInUse := int(cl.maxInUse.Load())
	if pop != inUse {
		return fmt.Errorf("class %d: inUse %d != bitmap population %d", c, inUse, pop)
	}
	if inUse > maxInUse {
		return fmt.Errorf("class %d: inUse %d exceeds threshold %d", c, inUse, maxInUse)
	}
	if regs.totalSlots > cl.capSlots {
		return fmt.Errorf("class %d: totalSlots %d exceeds cap %d", c, regs.totalSlots, cl.capSlots)
	}
	return nil
}
