package core

// Remote-free rings (DESIGN.md §12): the producer-consumer free path.
//
// Magazines (§11) batch the frees a worker applies itself, but a free
// still ends in a CAS bit-clear on the owning shard's bitmap word plus an
// occupancy decrement on its atomic counter — shared cache lines that a
// serve-style workload (objects allocated by one worker, freed by
// another) hammers from the wrong core on every session. A remote-free
// ring turns that into a hand-off: the non-owner enqueues the address
// into the owner's bounded MPSC ring (one CAS ticket plus a slot write,
// touching nothing the owner's malloc path reads), and the owner drains
// the ring on its own schedule — opportunistically at magazine refills,
// mandatorily when a class hits its 1/M threshold (the queued frees may
// be exactly the room it needs) and at the CheckInvariants barrier.
//
// Correctness is unchanged because the ring defers work without
// splitting authority: an enqueued free leaves the slot's bit set and
// its occupancy unit reserved, so every invariant (popcount == inUse,
// threshold bounds) holds with entries in flight, and the drain's
// bit-clear (subregion.release) remains the single arbiter of §4.3
// double-free detection — of any set of racing frees of one slot,
// through any mix of rings, magazines, and synchronous calls, exactly
// one clears the bit (on a tagged heap, the generation CAS). A full
// ring falls back to the synchronous path rather than blocking, so
// RemoteFree never waits on the owner.

import (
	"sync/atomic"

	"diehard/internal/heap"
	"diehard/internal/obs"
)

// remoteRingSize is the per-heap ring capacity (a power of two). Sized
// so that a burst of cross-worker frees from many producers fits between
// two owner drains; overflow degrades to the synchronous path, never to
// blocking or loss.
const remoteRingSize = 1024

// freeCell is one ring slot. seq is the Vyukov sequence word that hands
// the cell between producers and the consumer: a producer may claim the
// cell when seq == pos (its ticket), publishes with seq = pos+1, and the
// consumer recycles it with seq = pos+mask+1. addr and gen are plain:
// the seq store/load pair orders them. gen 0 marks an unchecked free
// (plain RemoteFree, or any free on an untagged heap — issued tags are
// never 0); a nonzero gen carries a fat pointer's tag, admitted by
// fatGate, to the owner's gen-checked drain.
type freeCell struct {
	seq  atomic.Uint64
	addr uint64
	gen  uint64
}

// freeRing is a bounded multi-producer ring with a single locked
// consumer (the owner's drain, serialized by Heap.drainMu). Producers
// claim tickets by CAS on enqPos; enqueue never blocks and reports a
// full ring instead.
type freeRing struct {
	mask   uint64
	cells  []freeCell
	_      [48]byte // keep the producer and consumer cursors apart
	enqPos atomic.Uint64
	_      [56]byte
	deqPos atomic.Uint64
}

func newFreeRing(size int) *freeRing {
	r := &freeRing{
		mask:  uint64(size - 1),
		cells: make([]freeCell, size),
	}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// enqueue publishes addr (with its generation tag, or 0 for untagged
// frees) to the ring; false means the ring is full and the caller
// should free synchronously. Lock-free: a failed CAS means a racing
// producer took the ticket and progressed.
func (r *freeRing) enqueue(addr, gen uint64) bool {
	for {
		pos := r.enqPos.Load()
		cell := &r.cells[pos&r.mask]
		switch d := int64(cell.seq.Load()) - int64(pos); {
		case d == 0:
			if r.enqPos.CompareAndSwap(pos, pos+1) {
				cell.addr = addr
				cell.gen = gen
				cell.seq.Store(pos + 1)
				return true
			}
		case d < 0:
			return false // a full lap behind: ring is full
		}
		// d > 0: another producer advanced enqPos under us; reload.
	}
}

// dequeue takes the oldest published entry. Single consumer: the caller
// holds drainMu. false means the ring is empty (or the next producer has
// a ticket but has not published yet — it will be seen next drain).
func (r *freeRing) dequeue() (addr, gen uint64, ok bool) {
	pos := r.deqPos.Load()
	cell := &r.cells[pos&r.mask]
	if int64(cell.seq.Load())-int64(pos+1) < 0 {
		return 0, 0, false
	}
	addr, gen = cell.addr, cell.gen
	cell.seq.Store(pos + r.mask + 1)
	r.deqPos.Store(pos + 1)
	return addr, gen, true
}

// empty is the unlocked fast check drain sites use to skip the mutex:
// two loads, exact enough (an entry published immediately after is
// caught by the next barrier).
func (r *freeRing) empty() bool {
	pos := r.deqPos.Load()
	return int64(r.cells[pos&r.mask].seq.Load())-int64(pos+1) < 0
}

// RemoteFree releases p through the heap's remote-free ring: one atomic
// ticket plus a cell write, touching none of the owner's hot metadata.
// The clear, the occupancy release, and all statistics are applied by
// the owner's next drain (refill, threshold miss, or CheckInvariants
// barrier). Everything the ring cannot defer — heaps built without
// Options.RemoteRing, null/large/foreign/misaligned pointers, a full
// ring — falls back to the synchronous Free, so RemoteFree keeps Free's
// exact §4.3 semantics and never blocks on the owner.
func (h *Heap) RemoteFree(p heap.Ptr) error {
	_, err := h.remoteFree(heap.FatPtr{Addr: p})
	return err
}

// remoteFree is the one remote free path; fp.Gen follows free's
// convention (a gate-admitted tag, or 0 for unchecked) and travels in
// the ring cell.
func (h *Heap) remoteFree(fp heap.FatPtr) (bool, error) {
	r := h.remote
	if r == nil {
		return h.free(fp)
	}
	cl, sub, _ := h.find(fp.Addr)
	if cl == nil || (fp.Addr-sub.base)&cl.mask != 0 {
		return h.free(fp) // null, large, foreign, or interior: the unbatched path decides
	}
	if !r.enqueue(fp.Addr, fp.Gen) {
		return h.free(fp) // owner is behind; apply in place rather than wait
	}
	if h.trace != nil {
		h.trace.Emit(obs.EvRemoteFree, fp.Addr)
	}
	return true, nil
}

// RemoteFree routes p to its owning shard's ring (falling back to the
// synchronous path exactly as Heap.RemoteFree does); pointers owned by
// no shard are ignored, DieHard's §4.3 semantics.
func (sh *ShardedHeap) RemoteFree(p heap.Ptr) error { return sh.shardOf(p).RemoteFree(p) }

// drainRemote applies everything queued in the remote ring: per entry
// one bit-clear (the single §4.3 arbiter — a queued double free loses
// here and is counted ignored), then per touched class one batched
// occupancy decrement and one batched stats publication. Returns the
// number of wins for class want (pass -1 when the caller only needs the
// ring emptied). At most one ring's capacity is applied per call so a
// drain racing a fast producer cannot spin forever; the backlog is
// bounded by the fallback-to-synchronous overflow behavior.
func (h *Heap) drainRemote(want int) int {
	r := h.remote
	if r == nil || r.empty() {
		return 0
	}
	h.drainMu.Lock()
	n := h.drainRemoteLocked(want)
	h.drainMu.Unlock()
	return n
}

// tryDrainRemote is the opportunistic drain for the malloc/refill path:
// if the ring has entries and no other goroutine is mid-drain, apply
// them; otherwise do nothing — a barrier drain will catch up.
func (h *Heap) tryDrainRemote() {
	r := h.remote
	if r == nil || r.empty() {
		return
	}
	if !h.drainMu.TryLock() {
		return
	}
	h.drainRemoteLocked(-1)
	h.drainMu.Unlock()
}

func (h *Heap) drainRemoteLocked(want int) int {
	r := h.remote
	var tally [NumClasses]flushTally
	total := 0
	for total <= int(r.mask) {
		addr, gen, ok := r.dequeue()
		if !ok {
			break
		}
		total++
		cl, sub, local := h.find(addr)
		if cl == nil || (addr-sub.base)&cl.mask != 0 {
			// Unreachable via RemoteFree's pre-check; kept so a future
			// producer bug degrades to an ignored free, not corruption.
			h.addStat(&h.stats.IgnoredFrees, 1)
			continue
		}
		// releaseBuffered's arbitration, its untagged arm inline for the
		// same reason. On a tagged heap (DESIGN.md §15) an entry whose
		// tag went stale during the deferral (including across a
		// reallocation) is rejected, not mistaken for the new
		// incarnation's free.
		t := &tally[int(sub.shift)-minObjectShift]
		switch {
		case sub.gens != nil:
			t.settleTagged(h, sub, local, uint32(gen))
		case sub.release(local, h.atomicStats):
			t.wins++
		default:
			t.ignored++
		}
	}
	for c := range tally {
		h.finishBatchedFrees(c, tally[c])
	}
	if total > 0 {
		h.addStat(&h.stats.RemoteFrees, uint64(total))
		h.addStat(&h.stats.RemoteDrains, 1)
		if h.trace != nil {
			h.trace.Emit(obs.EvDrain, uint64(total))
		}
	}
	if want >= 0 {
		return tally[want].wins
	}
	return total
}
