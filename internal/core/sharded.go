package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/rng"
	"diehard/internal/vmem"
)

// ShardedHeap is a Hoard-style scalable front end over N independent
// DieHard heaps (Berger et al., ASPLOS 2000 lineage; here each per-shard
// heap is a full randomized DieHard allocator) — the multi-worker
// malloc path of the concurrency model (DESIGN.md §7). All shards
// allocate out of one shared address space, so a pointer from any shard
// is usable through Mem() like any other pointer, while the randomized
// metadata — bitmaps, counters, probe streams — stays private per
// shard. Throughput scales because concurrent mallocs land on different
// shards.
//
// DieHard's per-heap guarantees are preserved shard-wise: each shard is
// its own M-expanded heap, so Theorem 1/2 masking probabilities hold for
// the objects of each shard exactly as for a stand-alone heap of that
// size. Free routes any pointer to its owning shard in O(shards) worst
// case (O(1) page-index lookup per shard), and invalid or double frees
// are ignored just as §4.3 prescribes.
//
// Unpinned mallocs are routed by occupancy (DESIGN.md §10): the request
// steals a slot from the shard whose target size class is emptiest right
// now, read from the per-shard atomic occupancy counters the lock-free
// engine maintains anyway. Shards are equal-sized, so comparing raw
// counts compares fullness — the slot-granular analog of Hoard stealing
// the emptiest superblock — and skewed worker load can no longer drive
// one shard into its 1/M threshold while its siblings sit empty.
//
// RandomFill (replicated mode) is not supported: every shard is
// Concurrent, which RandomFill refuses, and replica voting gives each
// replica a private space, which is exactly what sharding gives up. TLB
// simulation and the observation hooks are likewise sequential-only.
type ShardedHeap struct {
	space  *vmem.Space
	shards []*Heap
	seed   uint64

	// route is the per-class steal-routing hysteresis word (DESIGN.md
	// §11): shard index in the high half, requests remaining in the low.
	// While remaining > 0, Malloc reuses the sticky shard instead of
	// re-reading every shard's occupancy; the counter updates are plain
	// racy stores (lost decrements just stretch or shrink a window — the
	// route is a heuristic, never a correctness input), and a shard that
	// reports out-of-memory zeroes the window so rerouting is immediate.
	route [NumClasses]atomic.Uint64

	magRegistry // magazines over the sharded heap (NewMagazine)

	// trace is the router's own flight-recorder ring (AttachRecorder):
	// steal-routing decisions emit here, while each shard's engine
	// events go to that shard's ring. Nil = disabled, one branch.
	trace *obs.Ring
}

// routeWindow is how many small-object mallocs reuse one occupancy
// decision before the router re-reads the per-shard counters. Magazines
// make their own routing decision once per refill; this window is the
// equivalent amortization for unbatched callers.
const routeWindow = 32

var _ heap.Allocator = (*ShardedHeap)(nil)

// NewSharded creates a sharded DieHard heap with n shards. opts
// configures each shard, except that HeapSize (defaulting to the paper's
// 384 MB) is the total across shards — each shard manages HeapSize/n —
// and per-shard seeds are derived from opts.Seed. RandomFill, EnableTLB
// and observation hooks are rejected.
func NewSharded(n int, opts Options) (*ShardedHeap, error) {
	if n <= 0 {
		return nil, fmt.Errorf("diehard: shard count %d must be positive", n)
	}
	if opts.EnableTLB {
		return nil, fmt.Errorf("diehard: TLB simulation is sequential and cannot be sharded")
	}
	o := opts.withDefaults()
	perShard := o.HeapSize / n
	if perShard/NumClasses < vmem.PageSize {
		return nil, fmt.Errorf("diehard: heap size %d too small for %d shards", o.HeapSize, n)
	}
	master := rng.NewSeeded(o.Seed)
	if o.Seed == 0 {
		master = rng.New()
	}
	sh := &ShardedHeap{
		space: vmem.NewSpace(),
		seed:  master.Seed(),
	}
	sh.space.SetStatsMode(vmem.StatsShared)
	for i := 0; i < n; i++ {
		so := o
		so.HeapSize = perShard
		so.Seed = master.Split().Seed()
		so.Concurrent = true
		h, err := newHeap(so, sh.space)
		if err != nil {
			return nil, fmt.Errorf("diehard: shard %d: %w", i, err)
		}
		sh.shards = append(sh.shards, h)
	}
	return sh, nil
}

// Shards returns the number of shards.
func (sh *ShardedHeap) Shards() int { return len(sh.shards) }

// Shard returns shard i as a full DieHard heap sharing this heap's
// address space. Workers that pin themselves to a shard (i = worker
// index mod Shards()) get completely contention-free malloc paths;
// pointers remain freeable through any shard view or the ShardedHeap
// itself.
func (sh *ShardedHeap) Shard(i int) *Heap { return sh.shards[i%len(sh.shards)] }

// Malloc allocates from the emptiest shard for the request's size class
// (ties break to the lowest shard index, so routing is deterministic in
// the observed occupancies). The estimate is one atomic load per shard —
// the same counter the lock-free malloc path reserves against — so
// routing costs O(shards) loads and no locks, and a shard near its 1/M
// threshold stops attracting requests instead of failing them while its
// siblings have room. If the chosen shard still refuses (a reservation
// race at its threshold boundary, or an exact occupancy tie), the
// remaining shards are retried in ascending occupancy, so a routed
// request fails only when every shard is genuinely out of memory.
// Workers that want stable placement should allocate through Shard(i)
// instead.
func (sh *ShardedHeap) Malloc(size int) (heap.Ptr, error) {
	fp, err := sh.malloc(size)
	return fp.Addr, err
}

// malloc is the one routed malloc path: the chosen shard's malloc,
// tag included.
func (sh *ShardedHeap) malloc(size int) (heap.FatPtr, error) {
	if size > MaxObjectSize {
		// Large objects bypass the size classes; balance them by total
		// live bytes instead of class occupancy. No hysteresis: large
		// allocations are rare and each shifts the balance materially.
		load := func(s *Heap) int64 {
			return int64(atomic.LoadUint64(&s.stats.LiveBytes))
		}
		best, _ := sh.emptiest(load, nil)
		return sh.mallocRetrying(best, size, load)
	}
	c := ClassFor(size)
	load := sh.classLoad(c)
	// Hysteresis fast path: reuse the last routing decision while its
	// window lasts — one load+store on one shared word instead of a load
	// per shard. The decrement is a plain racy store; a lost update only
	// perturbs the window length.
	if st := sh.route[c].Load(); uint32(st) > 0 {
		s := sh.shards[st>>32]
		cl := &s.classes[c]
		if atomic.LoadInt64(&cl.inUse) >= cl.maxInUse {
			// The routed *class* hit its 1/M threshold mid-window: drop
			// the sticky shard now, before wasting a malloc on it, instead
			// of rerouting only after an observed out-of-memory.
			sh.route[c].Store(0)
		} else {
			sh.route[c].Store(st - 1)
			fp, err := s.malloc(size)
			if err == nil || !errors.Is(err, heap.ErrOutOfMemory) {
				return fp, err
			}
			sh.route[c].Store(0) // sticky shard is full: reroute now
		}
	}
	best, idx := sh.emptiest(load, nil)
	fp, err := best.malloc(size)
	if err == nil {
		sh.route[c].Store(uint64(idx)<<32 | (routeWindow - 1))
		if sh.trace != nil {
			// One event per routing decision (not per malloc): the new
			// sticky shard for this class.
			sh.trace.Emit(obs.EvSteal, uint64(idx)<<32|uint64(c))
		}
		return fp, nil
	}
	if !errors.Is(err, heap.ErrOutOfMemory) {
		return fp, err
	}
	return sh.mallocRetrying(best, size, load)
}

// mallocRetrying runs the slow routing pass after the preferred shard
// refused: the remaining shards in ascending load order, so a routed
// request fails only when every shard is genuinely out of memory. The
// exclusion set is allocated off the hot path.
func (sh *ShardedHeap) mallocRetrying(first *Heap, size int, load func(*Heap) int64) (heap.FatPtr, error) {
	fp, err := first.malloc(size)
	if err == nil || !errors.Is(err, heap.ErrOutOfMemory) {
		return fp, err
	}
	tried := map[*Heap]bool{first: true}
	for len(tried) < len(sh.shards) {
		next, _ := sh.emptiest(load, tried)
		if fp, err = next.malloc(size); err == nil || !errors.Is(err, heap.ErrOutOfMemory) {
			return fp, err
		}
		tried[next] = true
	}
	return heap.FatPtr{}, err
}

// classLoad returns the routing load function for size class c: the
// shard's class occupancy, one atomic read of the counter the lock-free
// malloc path reserves against.
func (sh *ShardedHeap) classLoad(c int) func(*Heap) int64 {
	return func(s *Heap) int64 { return atomic.LoadInt64(&s.classes[c].inUse) }
}

// refillShard picks the shard a magazine refill of class c should land
// on: the emptiest right now. Magazines re-route once per refill, so
// this read amortizes over the whole batch.
func (sh *ShardedHeap) refillShard(c int) *Heap {
	best, _ := sh.emptiest(sh.classLoad(c), nil)
	return best
}

// emptiest returns the non-excluded shard minimizing load and its
// index, ties to the lowest index.
func (sh *ShardedHeap) emptiest(load func(*Heap) int64, excluded map[*Heap]bool) (*Heap, int) {
	var best *Heap
	var bestLoad int64
	bestIdx := 0
	for i, s := range sh.shards {
		if excluded[s] {
			continue
		}
		if use := load(s); best == nil || use < bestLoad {
			best, bestLoad, bestIdx = s, use, i
		}
	}
	return best, bestIdx
}

// owner returns the shard owning p, or nil. Small objects resolve via
// each shard's lock-free O(1) page index; large objects via the owning
// shard's table.
func (sh *ShardedHeap) owner(p heap.Ptr) *Heap {
	for _, s := range sh.shards {
		if s.InHeap(p) || s.ownsLarge(p) {
			return s
		}
	}
	return nil
}

// shardOf is the free routes' owner lookup: a pointer no shard owns
// (null included) goes to shard 0, whose free rejects it as any heap
// rejects a pointer it does not own.
func (sh *ShardedHeap) shardOf(p heap.Ptr) *Heap {
	if p != heap.Null {
		if s := sh.owner(p); s != nil {
			return s
		}
	}
	return sh.shards[0]
}

// Free routes p to its owning shard; pointers owned by no shard are
// ignored, DieHard's §4.3 semantics.
func (sh *ShardedHeap) Free(p heap.Ptr) error { return sh.shardOf(p).Free(p) }

// free is the one routed free path, on the owning shard.
func (sh *ShardedHeap) free(fp heap.FatPtr) (bool, error) { return sh.shardOf(fp.Addr).free(fp) }

// Quarantine routes p to its owning shard's quarantine (Heap.Quarantine),
// as Free routes plain frees.
func (sh *ShardedHeap) Quarantine(p heap.Ptr) error { return sh.shardOf(p).Quarantine(p) }

// SizeOf reports the usable size of the allocated object starting
// exactly at p, whichever shard owns it.
func (sh *ShardedHeap) SizeOf(p heap.Ptr) (int, bool) {
	if s := sh.owner(p); s != nil {
		return s.SizeOf(p)
	}
	return 0, false
}

// ObjectBounds resolves any pointer (including interior pointers) to the
// containing allocated object, for the checked libc replacements.
func (sh *ShardedHeap) ObjectBounds(p heap.Ptr) (start heap.Ptr, size int, ok bool) {
	for _, s := range sh.shards {
		if start, size, ok = s.ObjectBounds(p); ok {
			return start, size, ok
		}
	}
	return 0, 0, false
}

// InHeap reports whether p lies within any shard's small-object regions.
func (sh *ShardedHeap) InHeap(p heap.Ptr) bool {
	for _, s := range sh.shards {
		if s.InHeap(p) {
			return true
		}
	}
	return false
}

// Mem returns the shared simulated address space all shards allocate in.
func (sh *ShardedHeap) Mem() *vmem.Space { return sh.space }

// Close closes the shared address space (Heap.Close); no shard, magazine
// or worker may access it concurrently or afterwards.
func (sh *ShardedHeap) Close() { sh.space.Close() }

// Stats returns an aggregate snapshot of all shard counters. Unlike the
// single-heap allocators, the returned struct is a fresh snapshot, not a
// live view; PeakLiveBytes is the sum of per-shard peaks, an upper bound
// on the true simultaneous peak.
func (sh *ShardedHeap) Stats() *heap.Stats {
	var agg heap.Stats
	for _, s := range sh.shards {
		agg.AddAtomic(&s.stats)
	}
	return &agg
}

// StatsSnapshot returns the aggregate counters by value — the same
// atomic aggregation as Stats, under the name the rest of the stack
// uses for race-safe counter reads.
func (sh *ShardedHeap) StatsSnapshot() heap.Stats { return *sh.Stats() }

// AttachRecorder wires the flight recorder through the sharded heap:
// shard i emits its engine events (malloc/free/drain/quarantine/
// barrier) on rec.Ring(base+i), and the router emits steal decisions
// on rec.Ring(base+Shards()). Call before the heap is shared between
// goroutines; a nil recorder detaches everything.
func (sh *ShardedHeap) AttachRecorder(rec *obs.Recorder, base int) {
	for i, s := range sh.shards {
		if rec == nil {
			s.trace = nil
		} else {
			s.trace = rec.Ring(base + i)
		}
	}
	if rec == nil {
		sh.trace = nil
	} else {
		sh.trace = rec.Ring(base + len(sh.shards))
	}
}

// PublishMetrics registers the aggregate counters as core.* gauges in
// reg (the coreGauges table over StatsSnapshot, so core.peak_live_bytes
// is the sum of the shards' peaks), plus a per-shard
// core.shard_live_objects{shard=N} breakdown. Gauges aggregate
// atomically at snapshot time, so live scrapes are race-free.
func (sh *ShardedHeap) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, g := range coreGauges {
		field := g.field
		reg.Gauge(g.name, func() float64 {
			st := sh.StatsSnapshot()
			return float64(*field(&st))
		})
	}
	for i, s := range sh.shards {
		shard := s
		reg.Gauge("core.shard_live_objects", func() float64 {
			return float64(atomic.LoadUint64(&shard.stats.LiveObjects))
		}, obs.Label{Name: "shard", Value: fmt.Sprint(i)})
	}
}

// FlushQuarantine releases every shard's quarantined slots (oldest-first
// per shard) and returns the total actually freed.
func (sh *ShardedHeap) FlushQuarantine() int {
	released := 0
	for _, s := range sh.shards {
		released += s.FlushQuarantine()
	}
	return released
}

// QuarantineLen reports the total entries held across all shards'
// quarantine FIFOs.
func (sh *ShardedHeap) QuarantineLen() int {
	n := 0
	for _, s := range sh.shards {
		n += s.QuarantineLen()
	}
	return n
}

// Name identifies the allocator in experiment reports.
func (sh *ShardedHeap) Name() string {
	return fmt.Sprintf("diehard-sharded(%d)", len(sh.shards))
}

// Seed returns the master seed the per-shard seeds derive from.
func (sh *ShardedHeap) Seed() uint64 { return sh.seed }

// CheckInvariants verifies every shard's segregated metadata, draining
// this heap's registered magazines first so pre-claimed slots and
// buffered frees cannot masquerade as live objects.
func (sh *ShardedHeap) CheckInvariants() error { return sh.checkInvariants(0) }

// CheckInvariantsSlack is CheckInvariants with Heap.CheckInvariantsSlack's
// §12 ledger allowance for untagged heaps under double-free injection;
// structural invariants stay exact on every shard. Each shard is granted
// the full allowance — the caller cannot know which shard a straddling
// double landed on.
func (sh *ShardedHeap) CheckInvariantsSlack(slack uint64) error {
	return sh.checkInvariants(slack)
}

func (sh *ShardedHeap) checkInvariants(slack uint64) error {
	sh.DrainMagazines()
	for i, s := range sh.shards {
		if err := s.checkInvariants(slack); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
