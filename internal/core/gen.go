package core

// Generation-tagged slots (Options.GenTags, DESIGN.md §15): the
// deterministic temporal-safety tier.
//
// Every small-object slot carries a 32-bit generation word in a side
// array next to the allocation bitmap — segregated metadata, so heap
// writes cannot reach it and placement is byte-identical to an untagged
// heap. The word's parity encodes liveness: odd = allocated, even =
// free. Every transition bumps the word by one:
//
//   - a claim (malloc probe win, magazine refill) bumps even→odd
//     *after* winning its bitmap CAS — no CAS needed, because frees
//     reject even words and claims only follow a cleared bit, so the
//     word is quiescent between the bitmap win and the bump;
//   - a free CASes odd→even *before* the bitmap clear. On tagged heaps
//     this CAS, not the bitmap bit, is the single §4.3 arbiter: of any
//     set of racing frees of one incarnation — synchronous, magazine-
//     flushed, quarantined, or remote-ring-drained — exactly one wins
//     the transition, and the winner's bit-clear can never fail or
//     land on a reallocated slot.
//
// MallocFat returns a fat pointer (addr, generation); FreeFat rejects
// any fat pointer whose generation no longer matches the slot — which
// makes the double free that straddles a reallocation, provably
// invisible to a pure bitmap allocator (§12), a deterministic
// Stats.StaleFrees rejection with an OnStaleFree evidence callback.
//
// Wraparound cannot produce a false "valid": a free that would push the
// 32-bit word into the ceiling band instead CASes it to the retirement
// sentinel — the slot keeps its bit and its occupancy unit forever, is
// never re-issued, and counts in Stats.Retired (not Frees, so
// Mallocs − Frees == LiveObjects still balances). The aliasing
// probability a *wrapping* tag would admit is quantified in
// internal/analysis (GenTagAliasProb); this implementation's answer to
// it is exactly zero. Large objects carry a 64-bit monotonic counter
// that cannot wrap on any physical timescale.

import (
	"errors"
	"sync/atomic"

	"diehard/internal/heap"
	"diehard/internal/obs"
)

const (
	// genRetired is the retirement sentinel: odd (so the slot reads as
	// allocated-parity forever) and never issued as a tag.
	genRetired = ^uint32(0) // 0xFFFFFFFF
	// genRetireAt is the retirement band: a free of a slot whose word is
	// at or above it retires the slot instead of recycling it. The
	// largest tag ever issued is therefore genRetireAt+1 = 0xFFFFFFF1
	// (the claim after the last even word below the band), strictly
	// below genRetired — no uint32 addition on any path can wrap.
	genRetireAt = uint32(0xFFFFFFF0)
)

// ErrNotGenTagged is returned by the fat-pointer API on heaps built
// without Options.GenTags.
var ErrNotGenTagged = errors.New("diehard: heap built without Options.GenTags")

// genOutcome is the result of a generation free-transition attempt.
type genOutcome int

const (
	genWin       genOutcome = iota // transition won: caller owns the release
	genLose                        // stale or double free: reject
	genRetireOut                   // slot retired at the generation ceiling
)

// genClaim bumps the slot's generation even→odd after a won bitmap
// claim and returns the tag it issued. No-op returning 0 on untagged
// heaps (one nil check on the malloc path).
func (h *Heap) genClaim(sub *subregion, local int) uint32 {
	if sub.gens == nil {
		return 0
	}
	if h.atomicStats {
		return atomic.AddUint32(&sub.gens[local], 1)
	}
	sub.gens[local]++
	return sub.gens[local]
}

// genFree arbitrates a free of slot local on a tagged heap: CAS the
// word odd→even, or into retirement at the ceiling. want is the tag the
// free carries, 0 for an unchecked free; a checked free additionally
// demands the word equal it, so a stale pointer — freed, reallocated,
// quarantined, or retired since issue — loses deterministically.
// genLose means the slot is already free, retired, stale, or lost to a
// racing free.
func (h *Heap) genFree(sub *subregion, local int, want uint32) genOutcome {
	g := &sub.gens[local]
	for {
		cur := atomic.LoadUint32(g)
		if cur&1 == 0 || cur == genRetired || want != 0 && cur != want {
			return genLose
		}
		next, out := cur+1, genWin
		if cur >= genRetireAt {
			next, out = genRetired, genRetireOut
		}
		if !h.atomicStats {
			*g = next
			return out
		}
		if atomic.CompareAndSwapUint32(g, cur, next) {
			return out
		}
	}
}

// noteStaleFree records a rejected stale free: counter, trace event,
// and the OnStaleFree evidence hook.
func (h *Heap) noteStaleFree(p heap.Ptr, gen uint64) {
	h.addStat(&h.stats.StaleFrees, 1)
	if h.trace != nil {
		h.trace.Emit(obs.EvStaleFree, p)
	}
	if h.opts.OnStaleFree != nil {
		h.opts.OnStaleFree(p, gen)
	}
}

// genValidTag reports whether g could ever have been issued as a tag:
// odd, nonzero, below the retirement sentinel, and within 32 bits.
// Anything else is stale by construction. Large-object tags qualify
// too: each large object takes at least 32 KB of the never-reused
// 64 GB simulated address space (guards and hole included), so a heap
// issues fewer than 2^21 of them.
func genValidTag(g uint64) bool {
	return g&1 == 1 && g == uint64(uint32(g)) && uint32(g) != genRetired
}

// GenTagged reports whether the heap issues generation-tagged pointers.
func (h *Heap) GenTagged() bool { return h.opts.GenTags }

// GenOf returns the current generation of the slot or large object
// containing p. ok is false on untagged heaps and for addresses outside
// the heap. A free slot reports its (even) resting generation — which is
// exactly what makes CheckGen on a stale fat pointer return false.
func (h *Heap) GenOf(p heap.Ptr) (uint64, bool) {
	_, sub, local := h.find(p)
	if sub != nil {
		if sub.gens == nil {
			return 0, false
		}
		if h.atomicStats {
			return uint64(atomic.LoadUint32(&sub.gens[local])), true
		}
		return uint64(sub.gens[local]), true
	}
	if !h.opts.GenTags {
		return 0, false
	}
	h.largeMu.Lock()
	lo, ok := h.large[p]
	h.largeMu.Unlock()
	if !ok {
		return 0, false
	}
	return lo.gen, true
}

// CheckGen reports whether fp is current: its tag equals the containing
// slot's generation word right now, and that word is a live (odd,
// unretired) tag the allocator could have issued — so a forged even tag
// cannot validate against a free slot, and the retirement sentinel
// validates nothing. This is the deterministic temporal validity test
// the generation-checked memory view (internal/detect) runs on every
// access.
func (h *Heap) CheckGen(fp heap.FatPtr) bool {
	g, ok := h.GenOf(fp.Addr)
	if !ok || g != fp.Gen || g&1 != 1 {
		return false
	}
	// Small-object words are 32-bit; only their sentinel is excluded
	// (large-object generations are 64-bit monotonic and never retire).
	if g == uint64(uint32(g)) && uint32(g) == genRetired {
		_, sub, _ := h.find(fp.Addr)
		if sub != nil {
			return false
		}
	}
	return true
}

// SetGen overwrites the generation word of the small-object slot at p —
// a test seam for wraparound and retirement drills (the analysis-layer
// bracket tests drive a slot to the ceiling without 2³¹ free/malloc
// round trips). gen must be a tag the allocator could have issued (odd,
// not the retirement sentinel); the slot must be a live, aligned,
// tagged small object. Returns the fat pointer carrying the new tag.
func (h *Heap) SetGen(p heap.Ptr, gen uint32) (heap.FatPtr, bool) {
	if gen&1 == 0 || gen == genRetired {
		return heap.FatPtr{}, false
	}
	cl, sub, local := h.find(p)
	if cl == nil || sub.gens == nil || (p-sub.base)&cl.mask != 0 {
		return heap.FatPtr{}, false
	}
	if h.atomicStats {
		atomic.StoreUint32(&sub.gens[local], gen)
	} else {
		sub.gens[local] = gen
	}
	return heap.FatPtr{Addr: p, Gen: uint64(gen)}, true
}

// MallocFat allocates like Malloc and returns the fat pointer carrying
// the generation its claim issued.
func (h *Heap) MallocFat(size int) (heap.FatPtr, error) {
	if !h.opts.GenTags {
		return heap.FatPtr{}, ErrNotGenTagged
	}
	return h.malloc(size)
}

// fatGate admits a fat free: an untagged heap refuses it, and a tag no
// claim could have issued (genValidTag) is a stale free, rejected here
// once. Past the gate a zero tag only ever means "unchecked", which is
// what ring cells and magazine buffers carry for plain frees.
func (h *Heap) fatGate(fp heap.FatPtr) (admitted bool, err error) {
	if !h.opts.GenTags {
		return false, ErrNotGenTagged
	}
	if fp.Addr != heap.Null && !genValidTag(fp.Gen) {
		h.noteStaleFree(fp.Addr, fp.Gen)
		return false, nil
	}
	return true, nil
}

// FreeFat releases a generation-tagged allocation. accepted reports
// whether this call won the release (or retired the slot): a stale tag
// — the slot freed, reallocated, quarantined, or retired since fp was
// issued — is rejected with accepted == false, counted in
// Stats.StaleFrees, and reported through OnStaleFree. Of racing FreeFat
// calls with the same fat pointer, exactly one is accepted: the
// generation CAS arbitrates, deterministically, even when the loser
// arrives after the slot was reallocated — the case a pure bitmap free
// cannot distinguish (§12). Misaligned interior pointers keep the plain
// §4.3 ignore (Stats.IgnoredFrees): they are spatial, not temporal,
// errors.
func (h *Heap) FreeFat(fp heap.FatPtr) (accepted bool, err error) {
	if ok, err := h.fatGate(fp); !ok {
		return false, err
	}
	return h.free(fp)
}

// RemoteFreeFat releases fp through the remote-free ring, carrying the
// generation in the ring cell so the owner's drain runs the same
// gen-checked arbitration FreeFat does — a stale fat pointer is
// rejected (Stats.StaleFrees) at drain time, after any reallocation the
// deferral allowed; a tag no claim could have issued is rejected at
// once. Everything the ring cannot defer falls back to the
// synchronous path. accepted == true for an enqueued free means
// "queued": the verdict lands in the owner's counters at its next
// drain.
func (h *Heap) RemoteFreeFat(fp heap.FatPtr) (accepted bool, err error) {
	if ok, err := h.fatGate(fp); !ok {
		return false, err
	}
	return h.remoteFree(fp)
}

// MallocFat allocates from the emptiest shard (the Malloc routing) and
// returns the fat pointer carrying the generation its claim issued.
func (sh *ShardedHeap) MallocFat(size int) (heap.FatPtr, error) {
	if !sh.shards[0].opts.GenTags {
		return heap.FatPtr{}, ErrNotGenTagged
	}
	return sh.malloc(size)
}

// FreeFat routes fp to its owning shard's gen-checked free. A fat
// pointer owned by no shard is stale by construction (its large object
// was already freed) and rejected.
func (sh *ShardedHeap) FreeFat(fp heap.FatPtr) (bool, error) { return sh.shardOf(fp.Addr).FreeFat(fp) }

// RemoteFreeFat routes fp to its owning shard's ring with the
// generation attached, exactly as ShardedHeap.RemoteFree routes plain
// pointers.
func (sh *ShardedHeap) RemoteFreeFat(fp heap.FatPtr) (bool, error) {
	return sh.shardOf(fp.Addr).RemoteFreeFat(fp)
}

// GenOf resolves p's current generation through its owning shard.
func (sh *ShardedHeap) GenOf(p heap.Ptr) (uint64, bool) {
	if s := sh.owner(p); s != nil {
		return s.GenOf(p)
	}
	return 0, false
}

// CheckGen reports whether fp is current in its owning shard.
func (sh *ShardedHeap) CheckGen(fp heap.FatPtr) bool {
	if s := sh.owner(fp.Addr); s != nil {
		return s.CheckGen(fp)
	}
	return false
}
