package core

// The per-worker allocation magazine (DESIGN.md §11): the Hoard/
// tcmalloc-style front end that makes the lock-free malloc path scale
// instead of merely exist. PR 5 removed the locks but left every malloc
// touching three shared atomics (occupancy CAS, probe-stream CAS,
// bitmap CAS) and every free two more; under contention the losers
// replay whole probe sequences. A Magazine amortizes all of that: it
// holds a small store of pre-claimed slots per hot size class, refilled
// by one claim of a whole batch (DESIGN.md §10: ONE batched CAS
// occupancy reservation, then a contiguous prefix of the per-class MWC
// sequence, published with a single CAS), and a local free buffer whose
// bitmap clears, occupancy decrements, and statistics publish in
// batches. A malloc on the fast path pops a pre-claimed slot and a free
// pushes into the local buffer — zero shared cache lines touched.
//
// The randomized-placement guarantees behind Theorem 1 survive batching
// by construction: a refill consumes exactly the prefix of the class
// draw stream that the same number of back-to-back unbatched mallocs
// would have consumed, against the same bitmap state (claims are made
// slot-by-slot as drawn, so each draw sees its predecessors exactly as
// back-to-back one-slot claims do). At one goroutine the publication CAS
// never loses, so a magazine-fed sequential workload places every
// object at the address the unbatched engine places it — the prefix
// property TestMagazinePrefixPlacement pins, which is what keeps the
// golden campaign OutputHash recordings meaningful as the ground truth.

import (
	"errors"
	"fmt"
	"sync"

	"diehard/internal/heap"
	"diehard/internal/obs"
)

const (
	// magInitialCap is a fresh magazine's per-class capacity; each
	// refill doubles it up to MagazineMaxCap, so one-shot classes stay
	// nearly batch-free while hot classes earn full batching.
	magInitialCap = 8
	// MagazineMaxCap is the largest per-class magazine: the bound on
	// slots a worker can hold pre-claimed (and on frees it can buffer)
	// per class, and therefore on how far a magazine-held class's
	// apparent occupancy can lead its true live count between drains.
	MagazineMaxCap = 64
	// minObjectShift is log2(MinObjectSize): subregion shifts map to
	// class indices by subtracting it.
	minObjectShift = 3
)

// magFree is one locally buffered free: the slot stays bitmap-live (so
// probes and double frees keep treating it exactly like a live object)
// until the flush publishes the clear. gen is the tag a checked free
// carries to the flush's arbiter, 0 for an unchecked one. The struct
// carries one pointer so buffering a free costs one write barrier.
type magFree struct {
	sub   *subregion
	local int32
	gen   uint32
}

// classMagazine is one size class's local state: pre-claimed slots in
// draw order (on tagged heaps, each with the tag its claim issued),
// pending (unpublished) malloc counters, and the free buffer. scratch
// is the refill's claim-undo buffer (class-wide slot indexes), reused
// across refills so the hot loop allocates nothing.
type classMagazine struct {
	owner          *Heap      // shard the claimed slots and pending stats belong to
	slots          []heap.Ptr // pre-claimed slots, FIFO in stream draw order
	tags           []uint32   // tagged heaps only: tags[i] is slots[i]'s claim tag
	next           int        // pop cursor into slots (and tags)
	cap            int        // current refill batch size (adaptive)
	pendingMallocs int        // popped slots not yet published to owner stats
	pendingReq     uint64     // requested bytes of those pops
	free           []magFree  // buffered frees awaiting batch publication
	scratch        []int32    // refill claim indexes, for undo on CAS loss
}

// flushTally is one heap's share of a batched release: frees won, §4.3
// ignores, and slots retired at the generation ceiling.
type flushTally struct{ wins, ignored, retired int }

// Magazine is a per-worker allocation front end over a lock-free
// DieHard heap (or a ShardedHeap, where each refill re-routes to the
// emptiest shard for the class — the occupancy hysteresis of DESIGN.md
// §11: shard occupancy is re-read once per magazine lifetime instead of
// once per malloc). A Magazine is owned by exactly one goroutine at a
// time; the backing heap remains safe for any number of magazines plus
// unbatched callers concurrently. Create with Heap.NewMagazine or
// ShardedHeap.NewMagazine; call Drain at barriers where exact counters
// or an exact free-slot view are needed, and Close when done.
//
// On a generation-tagged heap (DESIGN.md §15) the magazine carries tags
// end to end: MallocFat returns the tag each refill claim issued, and
// FreeFat buffers the tag for the flush, which arbitrates it exactly as
// the synchronous FreeFat does — on this heap or, rerouted, at a
// foreign shard's ring drain.
//
// Invalid frees keep DieHard's §4.3 semantics with one batching-shaped
// shift on untagged heaps: a pre-claimed (not yet served) slot is
// bitmap-live, so a wild free forging its address is accepted the way a
// wild free of any live object always was, where the unbatched engine
// would have ignored it (the slot would still have been free). The
// exposure is bounded by MagazineMaxCap slots per class per magazine.
// Tagged magazines close it: a pop serves a slot only while its
// generation word still equals the claim's tag, so a stolen pre-claim
// is never handed out, and Drain returns claims by tag, so it never
// releases a slot someone else has since claimed.
type Magazine struct {
	h       *Heap        // single-heap mode: the pinned heap
	sh      *ShardedHeap // sharded mode: refills re-route by occupancy
	tagged  bool         // the heap issues generation tags
	classes [NumClasses]classMagazine

	// trace is the worker's flight-recorder ring (SetTrace): magazine
	// mallocs, frees, refills, and flushes emit stamped events. The
	// magazine's single-owner contract makes the ring effectively
	// single-producer, so its timeline is strictly ordered. Nil = one
	// predictable branch per operation, the disabled-path contract.
	trace *obs.Ring
}

// SetTrace installs (or removes, with nil) the flight-recorder ring
// for this magazine's events. Call from the owner goroutine.
func (m *Magazine) SetTrace(r *obs.Ring) { m.trace = r }

// NewMagazine returns a per-worker magazine over this heap. The heap
// must not fill objects (RandomFill: a batched refill draws its probes
// ahead of the fills, which must follow each object's own probes) and
// must not have observation hooks installed: a detection engine audits
// canaries at every alloc and free boundary, which is exactly the
// per-operation precision batching gives up.
func (h *Heap) NewMagazine() (*Magazine, error) {
	if h.opts.RandomFill {
		return nil, fmt.Errorf("diehard: magazines cannot batch RandomFill: a refill draws its probes ahead of the fills")
	}
	if h.opts.OnAlloc != nil || h.opts.OnFree != nil {
		return nil, fmt.Errorf("diehard: magazines cannot batch past per-operation observation hooks")
	}
	m := &Magazine{h: h, tagged: h.opts.GenTags}
	m.init()
	h.registerMagazine(m)
	return m, nil
}

// NewMagazine returns a per-worker magazine over the sharded heap: the
// registration handle workers use instead of pinning a shard. Each
// class refill routes to the shard whose class occupancy is lowest at
// refill time (falling over to the others if it is at its threshold),
// so routing reads amortize across a whole magazine instead of every
// malloc; frees route to the owning shard by page index as always.
func (sh *ShardedHeap) NewMagazine() (*Magazine, error) {
	m := &Magazine{sh: sh, tagged: sh.shards[0].opts.GenTags}
	m.init()
	sh.registerMagazine(m)
	return m, nil
}

func (m *Magazine) init() {
	for c := range m.classes {
		m.classes[c].cap = magInitialCap
	}
}

// fatAllocator is what a magazine's unbatched fallbacks call on its
// backing heap: the one malloc and free path Heap and ShardedHeap both
// provide.
type fatAllocator interface {
	malloc(size int) (heap.FatPtr, error)
	free(fp heap.FatPtr) (bool, error)
}

// backing is the allocator behind this magazine, for the paths that
// bypass batching (large objects, foreign and misaligned pointers).
func (m *Magazine) backing() fatAllocator {
	if m.sh != nil {
		return m.sh
	}
	return m.h
}

// Malloc serves size bytes from the magazine: the common case pops a
// pre-claimed slot and touches only magazine-local memory. An empty
// class refills through the batched lock-free protocol; large objects
// fall through to the backing allocator unbatched.
func (m *Magazine) Malloc(size int) (heap.Ptr, error) {
	fp, err := m.malloc(size)
	return fp.Addr, err
}

// MallocFat is Malloc on a generation-tagged heap, returning the fat
// pointer whose tag the serving claim issued: at one goroutine the same
// address and tag the unbatched MallocFat returns.
func (m *Magazine) MallocFat(size int) (heap.FatPtr, error) {
	if !m.tagged {
		return heap.FatPtr{}, ErrNotGenTagged
	}
	return m.malloc(size)
}

// malloc is the one pop path. On a tagged heap a pre-claim is served
// only while its generation word still equals the tag its claim
// issued: a wild free that stole the claim (and whoever re-claimed the
// slot since) moved the word on, and the thief already settled the
// occupancy unit, so the pop just skips it.
func (m *Magazine) malloc(size int) (heap.FatPtr, error) {
	if size > MaxObjectSize || size < 0 {
		return m.backing().malloc(size)
	}
	if size == 0 {
		size = 1 // malloc(0) returns a distinct pointer, as in C
	}
	c := ClassFor(size)
	cm := &m.classes[c]
	for cm.next == len(cm.slots) {
		if err := m.refill(c, cm); err != nil {
			return heap.FatPtr{}, err
		}
	}
	fp := heap.FatPtr{Addr: cm.slots[cm.next]}
	if m.tagged {
		fp.Gen = uint64(cm.tags[cm.next])
		if g, _ := cm.owner.GenOf(fp.Addr); g != fp.Gen {
			cm.next++
			return m.malloc(size) // stolen: skip it
		}
	}
	cm.next++
	cm.pendingMallocs++
	cm.pendingReq += uint64(size)
	if m.trace != nil {
		m.trace.Emit(obs.EvMalloc, fp.Addr)
	}
	return fp, nil
}

// Free releases p: a small object of the backing heap is buffered
// locally and published in a batch (its bitmap bit stays set until
// then, so the slot keeps reading as live everywhere); everything else
// — large objects, foreign pointers, misaligned interior pointers —
// takes the backing allocator's unbatched path, which already counts
// the §4.3 ignores. On a tagged heap the free is unchecked, like
// Heap.Free there.
func (m *Magazine) Free(p heap.Ptr) error {
	_, err := m.free(heap.FatPtr{Addr: p})
	return err
}

// FreeFat releases a generation-tagged allocation through the
// magazine. The tag travels with the buffered free and the flush
// arbitrates it: a stale tag counts in Stats.StaleFrees and fires
// EvStaleFree and OnStaleFree exactly as the synchronous FreeFat does.
// accepted == true for a buffered free means "queued": its verdict
// lands at the flush. A tag that could never have been issued is
// rejected at once, by the backing heap's gate.
func (m *Magazine) FreeFat(fp heap.FatPtr) (accepted bool, err error) {
	if !m.tagged || fp.Addr != heap.Null && !genValidTag(fp.Gen) {
		// The backing heap's gate refuses or rejects it, charging the
		// heap (or shard) that owns fp.
		if m.sh != nil {
			return m.sh.FreeFat(fp)
		}
		return m.h.FreeFat(fp)
	}
	return m.free(fp)
}

// free is the one push path. fp.Gen is buffered for the flush's
// arbiter: a gate-admitted tag, or 0 for an unchecked free.
func (m *Magazine) free(fp heap.FatPtr) (bool, error) {
	p := fp.Addr
	if p == heap.Null {
		return true, nil
	}
	var (
		sub   *subregion
		local int
	)
	if m.sh == nil {
		_, sub, local = m.h.find(p)
	} else {
		for _, s := range m.sh.shards {
			if _, sub, local = s.find(p); sub != nil {
				break
			}
		}
	}
	if sub == nil || (p-sub.base)&sub.cl.mask != 0 {
		// Large, foreign, or misaligned interior: the unbatched path
		// decides (and counts the §4.3 ignores).
		return m.backing().free(fp)
	}
	c := int(sub.shift) - minObjectShift
	cm := &m.classes[c]
	cm.free = append(cm.free, magFree{sub: sub, local: int32(local), gen: uint32(fp.Gen)})
	if m.trace != nil {
		m.trace.Emit(obs.EvFree, p)
	}
	if len(cm.free) >= cm.cap {
		m.flushFrees(c, cm, false)
	}
	return true, nil
}

// refill restocks class c: pending malloc stats are published to the
// outgoing owner, buffered frees are recycled first (their occupancy
// must be visible before reserving more, or a heap at its 1/M threshold
// would refuse a refill its own buffer has already paid for), and then
// one claim takes the next stretch of slots. In sharded mode the refill
// lands on the emptiest shard for the class, falling over to the others
// at its threshold — the same steal order ShardedHeap.Malloc uses,
// amortized to once per magazine.
func (m *Magazine) refill(c int, cm *classMagazine) error {
	m.publishMallocs(c, cm)
	m.flushFrees(c, cm, false)
	want := cm.cap
	if cm.cap < MagazineMaxCap {
		cm.cap *= 2
	}
	owner := m.h
	if m.sh != nil {
		owner = m.sh.refillShard(c)
	}
	got, err := owner.magazineRefill(c, want, cm)
	if err != nil && m.sh != nil && errors.Is(err, heap.ErrOutOfMemory) {
		tried := map[*Heap]bool{owner: true}
		for len(tried) < len(m.sh.shards) {
			next, _ := m.sh.emptiest(m.sh.classLoad(c), tried)
			if got, err = next.magazineRefill(c, want, cm); err == nil {
				owner = next
				break
			}
			if !errors.Is(err, heap.ErrOutOfMemory) {
				return err
			}
			tried[next] = true
		}
	}
	if err != nil {
		return err
	}
	cm.owner = owner
	cm.next = 0
	if m.trace != nil {
		m.trace.Emit(obs.EvRefill, uint64(got))
	}
	return nil
}

// publishMallocs pushes the class's served-malloc counters to the owner
// the slots came from, in one batched stats update.
func (m *Magazine) publishMallocs(c int, cm *classMagazine) {
	if cm.pendingMallocs == 0 {
		return
	}
	cm.owner.countMallocs(cm.pendingMallocs, cm.pendingReq, uint64(cm.pendingMallocs)*uint64(ClassSize(c)))
	cm.pendingMallocs = 0
	cm.pendingReq = 0
}

// flushFrees publishes the class's buffered frees: one arbitration per
// slot (of racing frees of one pointer, exactly one wins, preserving
// §4.3 double-free detection across magazines, and a buffered tag that
// went stale is rejected as StaleFrees) and then, per run of same-heap
// frees, one occupancy decrement and one batched stats update for all
// the winners together.
//
// On a sharded heap with remote rings, an incremental flush (sync ==
// false) hands frees of *foreign* shards — any shard other than the one
// this magazine currently refills from — to that shard's ring, tag
// included, instead of arbitrating them from here; the owner applies
// them at its own drain points with the same verdicts. Barrier flushes
// (sync == true, from Drain) apply everything in place, so the drain
// contract stays as strong as rings allow: after Drain plus the owners'
// ring drains (which CheckInvariants performs), every counter is exact.
func (m *Magazine) flushFrees(c int, cm *classMagazine, sync bool) {
	if len(cm.free) == 0 {
		return
	}
	if m.trace != nil {
		m.trace.Emit(obs.EvFlush, uint64(len(cm.free)))
	}
	if m.sh == nil {
		m.h.releaseBuffered(c, cm.free, false)
	} else {
		// Settle each run of same-shard frees as one batch.
		for run := cm.free; len(run) > 0; {
			s := run[0].sub.h
			n := 1
			for n < len(run) && run[n].sub.h == s {
				n++
			}
			s.releaseBuffered(c, run[:n], !sync && s != cm.owner && s.remote != nil)
			run = run[n:]
		}
	}
	cm.free = cm.free[:0]
}

// releaseBuffered settles buffered frees of class c owned by this heap
// in one batch, or with reroute hands each, tag included, to this
// heap's remote ring, settling in place only when the ring is full.
//
// The untagged arm stays inline here and in drainRemoteLocked's twin
// loop: these are the batched free fast paths, and a helper covering
// both arms exceeds the inliner's budget (it must call the tagged
// arbiter), which costs the untagged magazine pair a call per free.
func (h *Heap) releaseBuffered(c int, buf []magFree, reroute bool) {
	var t flushTally
	for _, e := range buf {
		local := int(e.local)
		if reroute && h.remote.enqueue(e.sub.base+uint64(local)<<e.sub.shift, uint64(e.gen)) {
			continue // the owner will arbitrate it at its next drain
		}
		switch {
		case e.sub.gens != nil:
			t.settleTagged(h, e.sub, local, e.gen)
		case e.sub.release(local, h.atomicStats):
			t.wins++
		default:
			t.ignored++ // §4.3: a double or wild free
		}
	}
	h.finishBatchedFrees(c, t)
}

// settleTagged arbitrates one batched release on a tagged heap — a
// magazine's buffered free or a remote ring entry; gen is its tag, 0
// for an unchecked free — and tallies wins and retirements. A lost
// release is rejected at once, as on the synchronous path: a stale free
// (counter, trace event, and the OnStaleFree hook) if it carried a tag,
// the §4.3 ignore if not.
func (t *flushTally) settleTagged(h *Heap, sub *subregion, local int, gen uint32) {
	switch h.genFreeSlot(sub, local, gen) {
	case genWin:
		t.wins++
	case genRetireOut:
		t.retired++
	default:
		h.rejectFree(sub.base+uint64(local)<<sub.shift, uint64(gen))
	}
}

// Drain publishes everything the magazine holds back: pending malloc
// statistics, buffered frees (applied in place, never rerouted to remote
// rings), and every unconsumed pre-claimed slot (returned to its heap:
// bit cleared, occupancy released — they were never served, so no free
// is counted). After a drain the backing heap's counters, bitmaps, and
// FreeSlots walks are exact up to frees earlier incremental flushes
// handed to remote-free rings; CheckInvariants drains magazines and then
// the rings, restoring full exactness at that barrier (heaps without
// Options.RemoteRing are exact after Drain alone, as before). The
// magazine remains usable; the next malloc simply refills.
func (m *Magazine) Drain() {
	for c := range m.classes {
		cm := &m.classes[c]
		m.publishMallocs(c, cm)
		m.flushFrees(c, cm, true)
		m.returnClaims(c, cm)
	}
}

// returnClaims hands unconsumed pre-claimed slots back to their owner,
// each arbitrated with the tag its claim issued. A claim a wild free
// stole loses that arbitration and is skipped: its thief already gave
// the occupancy unit back (or retired the slot), and on a tagged heap
// the tag also keeps the return off a slot someone has since
// re-claimed.
func (m *Magazine) returnClaims(c int, cm *classMagazine) {
	if cm.next < len(cm.slots) {
		owner := cm.owner
		wins, retired := 0, 0
		for i := cm.next; i < len(cm.slots); i++ {
			_, sub, local := owner.find(cm.slots[i])
			out := genLose
			switch {
			case m.tagged:
				out = owner.genFreeSlot(sub, local, cm.tags[i])
			case sub.release(local, owner.atomicStats):
				out = genWin
			}
			switch out {
			case genWin:
				wins++
			case genRetireOut:
				retired++
			}
		}
		// Retired slots keep their bit and their occupancy unit forever;
		// they were never served, so nothing else is counted.
		if retired > 0 {
			owner.addStat(&owner.stats.Retired, uint64(retired))
		}
		if wins > 0 {
			owner.unreserve(&owner.classes[c], wins)
		}
	}
	cm.slots = cm.slots[:0]
	cm.next = 0
}

// Close drains the magazine and unregisters it from its heap's drain
// barrier. The magazine must not be used afterwards.
func (m *Magazine) Close() {
	m.Drain()
	if m.sh != nil {
		m.sh.unregisterMagazine(m)
	} else {
		m.h.unregisterMagazine(m)
	}
}

// magRegistry is a heap's drain barrier: the magazines built over it,
// which DrainMagazines drains. Heap and ShardedHeap each embed one.
type magRegistry struct {
	magMu     sync.Mutex // guards the registry, not the magazines
	magazines map[*Magazine]struct{}
}

func (r *magRegistry) registerMagazine(m *Magazine) {
	r.magMu.Lock()
	if r.magazines == nil {
		r.magazines = make(map[*Magazine]struct{})
	}
	r.magazines[m] = struct{}{}
	r.magMu.Unlock()
}

func (r *magRegistry) unregisterMagazine(m *Magazine) {
	r.magMu.Lock()
	delete(r.magazines, m)
	r.magMu.Unlock()
}

// DrainMagazines drains every magazine registered on this heap: the
// drain barrier detection audits and invariant checks run behind. Like
// the quiescent-exactness contract of CheckInvariants itself, the
// magazines' owner goroutines must not be mid-operation.
func (r *magRegistry) DrainMagazines() {
	r.magMu.Lock()
	mags := make([]*Magazine, 0, len(r.magazines))
	for m := range r.magazines {
		mags = append(mags, m)
	}
	r.magMu.Unlock()
	for _, m := range mags {
		m.Drain()
	}
}

// genFreeSlot is the §4.3 arbiter of a batched release on a tagged
// heap — a magazine's buffered free, a remote ring entry, or a returned
// pre-claim — and on a win clears the slot's bit. gen is the tag the
// release carries, 0 for an unchecked free (genFree). genLose is a
// double, stale, or stolen release; occupancy and statistics are the
// caller's, in batch.
func (h *Heap) genFreeSlot(sub *subregion, local int, gen uint32) genOutcome {
	out := h.genFree(sub, local, gen)
	if out == genWin {
		sub.release(local, h.atomicStats) // cannot fail after a won transition
	}
	return out
}

// finishBatchedFrees publishes a batch's outcome for class c of this
// heap: wins release occupancy and count as frees in one shot, losers
// are the §4.3 double frees, detected and ignored, and retired slots
// keep their units and count in Stats.Retired.
func (h *Heap) finishBatchedFrees(c int, t flushTally) {
	if t.wins > 0 {
		cl := &h.classes[c]
		h.unreserve(cl, t.wins)
		h.addStat(&h.stats.WorkUnits, uint64(t.wins)*heap.WorkBitmap)
		h.countFrees(t.wins, uint64(t.wins)*uint64(cl.size))
	}
	if t.ignored > 0 {
		h.addStat(&h.stats.IgnoredFrees, uint64(t.ignored))
	}
	if t.retired > 0 {
		h.addStat(&h.stats.Retired, uint64(t.retired))
	}
}

// magazineRefill restocks cm with up to want slots of class c. Refill
// is the owner's natural housekeeping point, so it first applies
// whatever the remote-free ring has accumulated (opportunistically — if
// another goroutine is mid-drain, skip), which keeps queued frees
// feeding the classes being refilled. Then one claim takes the batch,
// and one pass turns the committed slot indexes into addresses in
// cm.slots and, on a tagged heap, bumps each claim even→odd and records
// the tag it issued in cm.tags. At one goroutine the claimed slots are
// exactly those of want back-to-back unbatched mallocs.
func (h *Heap) magazineRefill(c, want int, cm *classMagazine) (int, error) {
	h.tryDrainRemote()
	idxs, err := h.claim(c, want, cm.scratch)
	if err != nil {
		return 0, err
	}
	// Both buffers are the magazine's own (idxs holds no pointers), so
	// a steady-state refill allocates nothing.
	cm.scratch = idxs
	sub := h.classes[c].sub
	slots, tags := cm.slots[:0], cm.tags[:0]
	for _, idx := range idxs {
		local := int(idx)
		slots = append(slots, sub.base+uint64(local)<<sub.shift)
		if sub.gens != nil {
			// Deferring the bump past the commit is safe: until it, the
			// slot's bit is set, so no claim competes for it, and its word
			// is even, so every free's generation transition rejects it —
			// nothing can steal a claim before it is tagged, which is what
			// keeps undoClaims tag-free.
			tags = append(tags, h.genClaim(sub, local))
		}
	}
	cm.slots, cm.tags = slots, tags
	return len(idxs), nil
}
