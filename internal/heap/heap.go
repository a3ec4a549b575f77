// Package heap defines the allocator abstraction shared by the DieHard
// allocator and every baseline in this repository, together with the
// error vocabulary of the simulated runtime (out of memory, abort,
// heap corruption) and the cycle cost model used by the Figure 5
// experiments.
//
// All allocators manage memory inside a vmem.Space; the addresses they
// return are simulated pointers (Ptr). Applications perform all data
// access through the Space, so memory errors have their native
// consequences rather than being intercepted by Go's runtime.
package heap

import (
	"errors"
	"fmt"
	"sync/atomic"

	"diehard/internal/vmem"
)

// Ptr is a simulated pointer: an address within a vmem.Space. The zero
// value is the null pointer.
type Ptr = uint64

// Null is the simulated null pointer. Address zero is never mapped.
const Null Ptr = 0

// FatPtr is a generation-tagged pointer (DESIGN.md §15): the address
// plus the generation the slot carried when this pointer was issued.
// A heap built with generation tags hands these out from MallocFat and
// verifies the tag on FreeFat and on every access through a
// generation-checked Memory view, so a stale pointer — one whose slot
// has since been freed or reallocated — is detected deterministically
// rather than probabilistically.
//
// Gen is 64-bit so large objects can carry a never-wrapping per-heap
// counter; small-object slots store 32-bit tags (zero-extended here)
// with a retirement scheme that makes wraparound impossible (§15).
// The zero value (Gen 0) is never issued for a live object.
type FatPtr struct {
	Addr Ptr
	Gen  uint64
}

// ErrOutOfMemory is returned by Malloc when the allocator cannot satisfy
// the request. DieHard returns it when a size class reaches its 1/M
// threshold (§4.2: "At threshold: no more memory").
var ErrOutOfMemory = errors.New("heap: out of memory")

// AbortError is raised by fail-stop runtimes (the CCured-like policy in
// internal/policies) when a dynamic check fails. It corresponds to the
// "abort" entries of Table 1 and is distinct from a crash (vmem.Fault):
// an abort is a controlled, detected termination.
type AbortError struct {
	Reason string
}

func (e *AbortError) Error() string { return "abort: " + e.Reason }

// CorruptionError is raised by an allocator that detects its own metadata
// has been damaged (for example, the Lea-style baseline tripping over a
// smashed boundary tag). The paper's baselines usually crash rather than
// detect; the Lea baseline raises this only in the places the real
// allocator would have faulted or failed an assertion.
type CorruptionError struct {
	Detail string
}

func (e *CorruptionError) Error() string { return "heap corruption: " + e.Detail }

// InvalidFreeError reports a free of an address the allocator does not
// own or has already freed, for allocators that report rather than
// ignore such frees (DieHard silently ignores them, per §4.3).
type InvalidFreeError struct {
	Addr Ptr
}

func (e *InvalidFreeError) Error() string {
	return fmt.Sprintf("invalid free of %#x", e.Addr)
}

// Stats aggregates allocator activity. WorkUnits is the honest cost
// accounting each allocator maintains for the cycle model: every
// implementation charges itself for the operations it performs (bitmap
// probes, freelist walks, header writes, mmap calls, GC marking).
type Stats struct {
	Mallocs        uint64
	Frees          uint64
	FailedMallocs  uint64
	IgnoredFrees   uint64 // invalid/double frees dropped (DieHard semantics)
	BytesRequested uint64
	BytesAllocated uint64 // after rounding/padding
	LiveObjects    uint64
	LiveBytes      uint64 // allocated (rounded) bytes currently live
	PeakLiveBytes  uint64
	WorkUnits      uint64
	Probes         uint64 // DieHard bitmap probes (§4.2 expected-probe bound)
	CASRetries     uint64 // lock-free CAS replays (probe-stream/occupancy/refill losses)
	RemoteFrees    uint64 // frees routed through the remote-free ring (counted at drain)
	RemoteDrains   uint64 // non-empty ring drain batches (mean batch = RemoteFrees/RemoteDrains)
	Quarantined    uint64 // frees intercepted into the quarantine FIFO (enqueues, duplicates included)
	QuarantineOut  uint64 // quarantine releases actually applied (bit cleared; duplicates count IgnoredFrees)
	StaleFrees     uint64 // generation-tagged frees rejected because the tag was stale (DESIGN.md §15)
	Retired        uint64 // slots permanently retired at the generation ceiling (never reused, held live)
	Collections    uint64 // GC only
}

// SnapshotAtomic returns a copy of st with every field loaded
// atomically. This is the only correct way to read counters while a
// goroutine-safe allocator is running: the direct struct copy
// `*a.Stats()` races with the atomic writers (each field is torn-free
// here, though the copy as a whole is not a consistent cut — exactness
// holds at quiescence, e.g. after a drain barrier). Sequential
// allocators may use either form.
func (st *Stats) SnapshotAtomic() Stats {
	var snap Stats
	snap.AddAtomic(st)
	return snap
}

// AddAtomic adds every field of src, each loaded atomically, to st,
// which the caller owns. It is the one list of Stats fields: snapshots
// and the sharded heap's aggregate both read through it.
func (st *Stats) AddAtomic(src *Stats) {
	st.Mallocs += atomic.LoadUint64(&src.Mallocs)
	st.Frees += atomic.LoadUint64(&src.Frees)
	st.FailedMallocs += atomic.LoadUint64(&src.FailedMallocs)
	st.IgnoredFrees += atomic.LoadUint64(&src.IgnoredFrees)
	st.BytesRequested += atomic.LoadUint64(&src.BytesRequested)
	st.BytesAllocated += atomic.LoadUint64(&src.BytesAllocated)
	st.LiveObjects += atomic.LoadUint64(&src.LiveObjects)
	st.LiveBytes += atomic.LoadUint64(&src.LiveBytes)
	st.PeakLiveBytes += atomic.LoadUint64(&src.PeakLiveBytes)
	st.WorkUnits += atomic.LoadUint64(&src.WorkUnits)
	st.Probes += atomic.LoadUint64(&src.Probes)
	st.CASRetries += atomic.LoadUint64(&src.CASRetries)
	st.RemoteFrees += atomic.LoadUint64(&src.RemoteFrees)
	st.RemoteDrains += atomic.LoadUint64(&src.RemoteDrains)
	st.Quarantined += atomic.LoadUint64(&src.Quarantined)
	st.QuarantineOut += atomic.LoadUint64(&src.QuarantineOut)
	st.StaleFrees += atomic.LoadUint64(&src.StaleFrees)
	st.Retired += atomic.LoadUint64(&src.Retired)
	st.Collections += atomic.LoadUint64(&src.Collections)
}

// Memory is the data-access interface applications use. *vmem.Space
// implements it directly; the policy runtimes in internal/policies wrap
// it to add dynamic checks (CCured-like fail-stop) or failure-oblivious
// semantics (dropped writes, manufactured reads). Routing application
// accesses through this interface is what lets those systems be
// reproduced empirically in Table 1.
//
// Beyond single-word loads and stores, the interface carries bulk fast
// paths (ReadBytes, WriteBytes, Memset, MemMove, FindByte) so string and
// buffer operations can run at page-frame speed on the radix page table
// (DESIGN.md §2) instead of making one interface call per byte. Checked
// runtimes are free to implement them byte-at-a-time when their
// semantics demand it.
type Memory interface {
	Load8(addr uint64) (byte, error)
	Store8(addr uint64, v byte) error
	Load32(addr uint64) (uint32, error)
	Store32(addr uint64, v uint32) error
	Load64(addr uint64) (uint64, error)
	Store64(addr uint64, v uint64) error
	ReadBytes(addr uint64, b []byte) error
	WriteBytes(addr uint64, b []byte) error
	Memset(addr uint64, v byte, n int) error
	MemMove(dst, src uint64, n int) error
	// FindByte scans forward from addr for c, examining at most limit
	// bytes, returning the offset from addr. It visits exactly the
	// bytes a Load8 loop would visit (so it faults in the same places)
	// and is the primitive behind the libc string scans.
	FindByte(addr uint64, c byte, limit int) (idx int, found bool, err error)
}

var _ Memory = (*vmem.Space)(nil)

// Allocator is the malloc/free interface every runtime in the repository
// implements.
type Allocator interface {
	// Malloc allocates size bytes and returns the simulated address.
	Malloc(size int) (Ptr, error)
	// Free releases an allocation. Semantics on invalid input differ by
	// allocator, exactly as they do between the real systems: DieHard
	// ignores, Lea corrupts, the fail-stop policy aborts.
	Free(p Ptr) error
	// SizeOf reports the usable size of an allocated object, used by
	// Realloc and by DieHard's checked libc replacements (§4.4).
	// ok is false if p is not a currently allocated object.
	SizeOf(p Ptr) (size int, ok bool)
	// Mem returns the address space this allocator manages memory in.
	Mem() *vmem.Space
	// Stats returns the allocator's counters, updated in place.
	Stats() *Stats
	// Name identifies the allocator in experiment reports.
	Name() string
}

// CountMallocs publishes n successful allocations: reqBytes is the sum
// of the requested sizes, allocBytes the sum of the rounded (or padded)
// sizes. Single-goroutine allocators pass n = 1 per malloc; the
// magazine front end (DESIGN.md §11) counts served mallocs locally and
// publishes them here in batches at refill/flush/drain boundaries, so
// its malloc fast path touches no shared counter at all.
func CountMallocs(st *Stats, n int, reqBytes, allocBytes uint64) {
	st.Mallocs += uint64(n)
	st.BytesRequested += reqBytes
	st.BytesAllocated += allocBytes
	st.LiveObjects += uint64(n)
	st.LiveBytes += allocBytes
	if st.LiveBytes > st.PeakLiveBytes {
		st.PeakLiveBytes = st.LiveBytes
	}
}

// CountMallocsAtomic is CountMallocs for goroutine-safe allocators:
// every counter update is atomic, and the live-bytes high-water mark is
// maintained with a CAS loop. A batch is published after its
// allocations were served, so there the mark is a lower bound on the
// true instantaneous peak (the quiescent-exactness contract the
// magazine's drain barrier restores).
func CountMallocsAtomic(st *Stats, n int, reqBytes, allocBytes uint64) {
	atomic.AddUint64(&st.Mallocs, uint64(n))
	atomic.AddUint64(&st.BytesRequested, reqBytes)
	atomic.AddUint64(&st.BytesAllocated, allocBytes)
	atomic.AddUint64(&st.LiveObjects, uint64(n))
	live := atomic.AddUint64(&st.LiveBytes, allocBytes)
	for {
		peak := atomic.LoadUint64(&st.PeakLiveBytes)
		if live <= peak || atomic.CompareAndSwapUint64(&st.PeakLiveBytes, peak, live) {
			return
		}
	}
}

// CountFrees publishes n successful frees of allocBytes rounded bytes
// in all.
func CountFrees(st *Stats, n int, allocBytes uint64) {
	st.Frees += uint64(n)
	st.LiveObjects -= uint64(n)
	st.LiveBytes -= allocBytes
}

// CountFreesAtomic is CountFrees for goroutine-safe allocators.
func CountFreesAtomic(st *Stats, n int, allocBytes uint64) {
	atomic.AddUint64(&st.Frees, uint64(n))
	atomic.AddUint64(&st.LiveObjects, ^(uint64(n) - 1))
	atomic.AddUint64(&st.LiveBytes, ^(allocBytes - 1))
}

// Calloc allocates n objects of size bytes each and zeroes the memory,
// like C's calloc.
func Calloc(a Allocator, n, size int) (Ptr, error) {
	if n < 0 || size < 0 {
		return Null, fmt.Errorf("heap: negative calloc request %d x %d", n, size)
	}
	total := n * size
	if size != 0 && total/size != n {
		return Null, ErrOutOfMemory // multiplication overflow
	}
	p, err := a.Malloc(total)
	if err != nil {
		return Null, err
	}
	if total > 0 {
		if err := a.Mem().Memset(p, 0, total); err != nil {
			return Null, err
		}
	}
	return p, nil
}

// Realloc resizes an allocation like C's realloc: Realloc(a, Null, n)
// allocates, Realloc(a, p, 0) frees, and otherwise the contents are
// copied up to the smaller of the old and new sizes.
func Realloc(a Allocator, p Ptr, size int) (Ptr, error) {
	if p == Null {
		return a.Malloc(size)
	}
	if size == 0 {
		return Null, a.Free(p)
	}
	oldSize, ok := a.SizeOf(p)
	if !ok {
		// Mirror undefined behaviour policies: let the allocator's own
		// Free semantics decide how a bad pointer is handled.
		return Null, &InvalidFreeError{Addr: p}
	}
	np, err := a.Malloc(size)
	if err != nil {
		return Null, err
	}
	n := oldSize
	if size < n {
		n = size
	}
	if err := a.Mem().MemMove(np, p, n); err != nil {
		return Null, err
	}
	if err := a.Free(p); err != nil {
		return Null, err
	}
	return np, nil
}

// IsCrash reports whether err represents a simulated crash (segmentation
// fault or detected heap corruption) as opposed to a controlled abort or
// allocation failure.
func IsCrash(err error) bool {
	var f *vmem.Fault
	var c *CorruptionError
	return errors.As(err, &f) || errors.As(err, &c)
}

// IsAbort reports whether err is a fail-stop abort.
func IsAbort(err error) bool {
	var a *AbortError
	return errors.As(err, &a)
}
