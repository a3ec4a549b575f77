// Package vmem simulates a virtual address space: paged memory with
// protection bits, mmap/munmap-style mapping, guard pages, and protection
// faults.
//
// This package is the substitution that makes a DieHard reproduction
// possible in a garbage-collected language (see DESIGN.md §1). Every
// allocator in this repository hands out addresses inside a Space, and
// every evaluation workload reads and writes through those addresses. A
// buffer overflow therefore really overwrites neighboring bytes, a read of
// an unmapped or guarded page really faults, and "the program crashed" has
// a concrete, testable meaning: an access returned a *Fault.
//
// Translation is a two-level radix page table modeled on real MMU walks
// (DESIGN.md §2): a directory of fixed-size leaves of page-table entries,
// indexed by bit fields of the page number. The access hot path performs
// one directory load, two array indexations and a protection mask test;
// no map lookups and no binary searches. Mapped ranges are recorded as
// extents, the source of truth for what is mapped and with which
// protection. PTEs are filled from the extents on a page's first touch,
// under the space mutex, the way a kernel fills its page table from VMAs
// at fault time; the lock-free access path reads only the page table.
//
// Concurrency (DESIGN.md §7): the access path is lock-free. The
// directory, its leaves, and each page's backing frame are published
// through atomic pointers, and each PTE's protection word is an atomic
// — so goroutines may load and store through a Space concurrently with
// each other and with mapping operations. Map, Unmap, Protect, and
// first-touch page instantiation serialize on an internal mutex, exactly
// as a kernel serializes address-space mutation while leaving the TLB
// fill path unlocked. Per-access statistics default to unsynchronized
// counters (single-goroutine accessors, the experiment trials); spaces
// accessed from several goroutines opt into atomic counting via
// SetStatsMode.
//
// The Space also models two performance-relevant mechanisms the paper
// discusses: lazy page instantiation (reserved but untouched DieHard
// partitions consume no memory, §4.5) and a small TLB (the source of the
// 300.twolf outlier in Figure 5(a), §7.2.1). Map records only an extent;
// a page's leaf, PTE, and backing frame (carved out of slab-allocated
// arenas) come into being on its first access, so a 384 MB DieHard heap
// costs what its touched pages cost. A space's owner closes it when done
// (Close): its slabs go to a process-wide pool of bounded size, and later
// spaces carve frames from them instead of making and zeroing new ones.
// The TLB model is an optional direct call on each translation; runs
// that do not enable it pay one nil check.
package vmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"diehard/internal/obs"
)

// PageSize is the size of a simulated page in bytes, matching the x86
// systems of the paper's evaluation.
const PageSize = 4096

const (
	pageShift = 12
	offMask   = PageSize - 1

	// leafBits is the span of the second radix level: 512 entries per
	// leaf, so one leaf translates 2 MB of address space.
	leafBits  = 9
	leafSlots = 1 << leafBits
	leafMask  = leafSlots - 1

	// dirBits bounds the first radix level: the directory grows with the
	// mapping up to 2^15 leaves x 2 MB = 64 GB of simulated address
	// space per Space.
	dirBits  = 15
	dirSlots = 1 << dirBits

	// maxAddr bounds Map: the highest simulated address + 1.
	maxAddr = uint64(dirSlots) << (leafBits + pageShift)

	// A space's first backing arena chunk holds firstSlabPages page
	// frames; each later chunk doubles the last, up to slabPages (1 MB).
	firstSlabPages = 8
	slabPages      = 256

	// slabSizes is the number of slab sizes that schedule produces,
	// 32 KB to 1 MB: one pool free list each.
	slabSizes = 6

	// slabPoolCap bounds the bytes of slabs the process-wide pool holds.
	slabPoolCap = 8 << 20
)

// frame is a page's backing store. Frames are published into PTEs via
// atomic pointers, so a whole page becomes visible to lock-free readers
// in one store.
type frame = [PageSize]byte

// Prot describes the access permissions of a mapped page.
type Prot uint8

const (
	// ProtNone maps a page that faults on any access; used for guard pages.
	ProtNone Prot = 0
	// ProtRead permits loads.
	ProtRead Prot = 1 << 0
	// ProtWrite permits stores.
	ProtWrite Prot = 1 << 1
	// ProtRW permits loads and stores.
	ProtRW Prot = ProtRead | ProtWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtWrite:
		return "-w-"
	case ProtRW:
		return "rw-"
	}
	return fmt.Sprintf("Prot(%d)", uint8(p))
}

// AccessKind distinguishes the operation that caused a fault.
type AccessKind uint8

const (
	// AccessLoad is a read access.
	AccessLoad AccessKind = iota
	// AccessStore is a write access.
	AccessStore
	// AccessFree is an unmap or protection change on an invalid range.
	AccessFree
)

func (k AccessKind) String() string {
	switch k {
	case AccessLoad:
		return "load"
	case AccessStore:
		return "store"
	case AccessFree:
		return "free"
	}
	return "access"
}

// Fault is the simulated equivalent of SIGSEGV: an access touched an
// unmapped page or violated page protections. Workloads treat any returned
// *Fault as a crash of the simulated process.
type Fault struct {
	Addr   uint64
	Kind   AccessKind
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("segmentation fault: %s at %#x (%s)", f.Kind, f.Addr, f.Reason)
}

// ErrClosed is the error Map, MapGuarded, Unmap and Protect return on a
// closed space. A load or store on a closed space returns a *Fault with
// the reason "closed space", which errors.Is also matches to ErrClosed.
var ErrClosed = errors.New("vmem: space is closed")

const closedReason = "closed space"

// Is reports whether the fault is an access to a closed space when
// target is ErrClosed.
func (f *Fault) Is(target error) bool { return target == ErrClosed && f.Reason == closedReason }

// Stats counts memory-system events. Loads and Stores count accesses
// (word-granularity for bulk operations); TLB counters are only meaningful
// when the TLB is enabled. Under StatsShared the counters are updated
// atomically; read them only after the accessing goroutines have been
// joined (or via atomic loads).
type Stats struct {
	Loads       uint64
	Stores      uint64
	TLBHits     uint64
	TLBMisses   uint64 // first-level misses
	TLB2Misses  uint64 // misses in both levels (cold page walks)
	PagesMapped uint64 // currently mapped pages
	PagesPeak   uint64 // high-water mark of mapped pages
	PagesDirty  uint64 // pages whose backing store was instantiated
	Faults      uint64
}

// Accesses returns the total number of loads and stores.
func (s *Stats) Accesses() uint64 { return s.Loads + s.Stores }

// StatsMode selects how per-access counters (Loads, Stores) are
// maintained; see SetStatsMode.
type StatsMode uint8

const (
	// StatsPrecise is the default: unsynchronized counters, correct when
	// each access sequence is confined to one goroutine at a time (the
	// experiment trials, the replicated runtime's per-replica spaces).
	StatsPrecise StatsMode = iota
	// StatsShared counts accesses exactly under concurrency through a
	// bank of cache-line-padded counter cells striped by page number,
	// aggregated into Stats on read. Workers operating on disjoint page
	// ranges — per-shard heap regions, per-worker page stripes — land on
	// different cells, so shared-mode accounting no longer serializes
	// every access on one contended cacheline.
	StatsShared
)

// statsCells is the number of striped counter cells in StatsShared mode.
// A power of two so the per-access cell choice is one mask of the page
// number; 64 cells keeps the bank at one page of padded counters while
// making collisions between concurrent workers on disjoint working sets
// unlikely.
const statsCells = 64

// counterCell is one stripe of the shared-mode access counters, padded
// to a cache line so adjacent cells never false-share.
type counterCell struct {
	loads  atomic.Uint64
	stores atomic.Uint64
	_      [48]byte
}

// pte is a page-table entry, filled on the page's first permitted access
// (lazy instantiation, §4.5): the frame is published first, then meta,
// which holds the page's protection bits — the analog of a hardware
// PTE's permission bits. An unfilled entry is all zero, so the fast path
// sends it to translateSlow, which consults the extents. Lock-free readers
// load meta and frame independently; every observable interleaving
// corresponds to a legal serialization of the concurrent mapping
// operations.
type pte struct {
	frame atomic.Pointer[frame]
	meta  atomic.Uint32
}

// leaf is the second radix level: a fixed array of page-table entries.
type leaf struct {
	ptes [leafSlots]pte
}

// extent is a mapped address range [start, end), page-aligned, with
// uniform protection. Extents are the source of truth for what is mapped:
// Map writes only an extent, and the locked first-touch path reads the
// protection of a page from its extent when it fills the page's PTE. The
// lock-free access path reads only the page table.
type extent struct {
	start, end uint64
	prot       Prot
}

// tlbSize is the number of entries in the simulated first-level TLB,
// matching a Pentium-4-era data TLB. tlb2Size models the page-walk
// caching of the memory hierarchy: a much larger second level whose
// hits make repeated misses over a warm working set far cheaper than
// cold page walks.
const (
	tlbSize  = 64
	tlb2Size = 1024
)

// tlbState is the simulated TLB: FIFO-replacement, fully associative,
// two levels. It is allocated only when EnableTLB is called. Residency
// is tracked in a dense per-page bitmask (bit 0: first level, bit 1:
// second level) so the per-access membership test is one array load;
// the FIFO rings record insertion order for eviction. TLB simulation is
// inherently sequential state; it is accounted only under StatsPrecise.
type tlbState struct {
	present  []uint8
	tlbRing  [tlbSize]uint64
	tlbHand  int
	tlbLive  int
	tlb2Ring [tlb2Size]uint64
	tlb2Hand int
	tlb2Live int
}

// slot returns the residency bits for pn, growing the table on demand
// (page numbers are bounded by the space's highest mapping).
func (t *tlbState) slot(pn uint64) *uint8 {
	if pn >= uint64(len(t.present)) {
		grown := make([]uint8, pn+pn/2+64)
		copy(grown, t.present)
		t.present = grown
	}
	return &t.present[pn]
}

// Space is a simulated virtual address space. Loads, stores, and the bulk
// operations are safe for concurrent use by multiple goroutines (choose a
// stats mode accordingly); Map, Unmap, and Protect serialize internally
// and their effects are visible to accesses that happen after them.
// Configuration calls (EnableTLB, SetPageFiller, SetStatsMode) must
// precede concurrent use, and Close must follow it.
type Space struct {
	// mu serializes address-space mutation: Map/Unmap/Protect, extent
	// bookkeeping, directory growth, slab carving, first-touch PTE
	// fills, and Close.
	mu      sync.Mutex
	extents []extent // sorted by start, non-overlapping; under mu
	next    uint64   // next free virtual address for Map; under mu
	closed  bool     // Close has run; under mu
	stats   Stats
	mode    StatsMode
	cells   *[statsCells]counterCell // striped access counters; StatsShared only
	filler  func([]byte)             // optional initializer for fresh page contents; under mu

	// Slab allocation of page frames: frames are carved from arena, a
	// slab taken from the pool (dirty) or freshly made (zero); frames
	// released by Unmap are recycled through freeFrames. slabs lists
	// every slab the space took, for Close to pool. All under mu.
	arena      []byte
	arenaDirty bool
	arenaOff   int
	freeFrames []*frame
	slabs      [][]byte

	// tlb, when non-nil, accounts every successful translation (EnableTLB).
	// Runs without the TLB pay one predictable nil check.
	tlb *tlbState

	// dir is the first radix level, covering at least [0, next): Map
	// grows it under mu by publishing a longer copy, and leaf pointers
	// are stored into the current copy under mu. Accesses load it
	// lock-free; a reader holding an older copy that lacks a new leaf
	// takes translateSlow, which reads the current one.
	dir atomic.Pointer[[]atomic.Pointer[leaf]]
}

// emptyDir is the directory of a space with nothing mapped. It has no
// slots to store into, so every space can share it.
var emptyDir []atomic.Pointer[leaf]

// NewSpace returns an empty address space. Address 0 is never mapped, so 0
// serves as the null pointer. The simulated TLB starts disabled; call
// EnableTLB for experiments that model translation costs.
func NewSpace() *Space {
	s := &Space{
		next: 0x10000, // leave a generous null guard region
	}
	s.dir.Store(&emptyDir)
	return s
}

// SetStatsMode selects how per-access counters are maintained. The
// default, StatsPrecise, is exact and free of synchronization but assumes
// accesses are not concurrent with each other; spaces accessed by several
// goroutines at once use StatsShared (striped atomic cells, exact,
// aggregated by Stats). Must be called before the space is shared. TLB
// accounting only runs under StatsPrecise.
func (s *Space) SetStatsMode(m StatsMode) {
	s.mode = m
	if m == StatsShared && s.cells == nil {
		s.cells = new([statsCells]counterCell)
	}
}

// EnableTLB turns on TLB simulation. Subsequent accesses count hits and
// misses against a 64-entry FIFO TLB backed by a 1024-entry second level.
// The TLB models a single hardware context and is accounted only under
// StatsPrecise (single-goroutine access).
func (s *Space) EnableTLB() {
	if s.tlb != nil {
		return
	}
	s.tlb = &tlbState{}
}

// SetPageFiller installs a function invoked on each fresh page's backing
// store before first use. DieHard's replicated mode uses this to realize
// §4.1's "fill the heap with random values" lazily: every page a replica
// ever observes is pre-filled from that replica's private random stream.
// A nil filler restores zero-fill. The filler runs under the space
// mutex, so invocations never overlap, but their order across pages
// follows first-touch order, which is scheduling-dependent when several
// goroutines share the space.
//
// A filler must write every byte of the page it is given. The frame it
// fills may be recycled, from this space's Unmap or from a closed
// space's slab, and is not cleared first when a filler is installed: a
// byte the filler skips would show a previous page's contents.
func (s *Space) SetPageFiller(fill func([]byte)) { s.filler = fill }

// PageFiller returns the filler SetPageFiller installed, or nil.
func (s *Space) PageFiller() func([]byte) { return s.filler }

// Stats returns a pointer to the space's counters. In StatsShared mode
// the striped access cells are drained into the struct first (so read
// Loads/Stores through a fresh Stats call, not a pointer held across
// accesses); under concurrent access, read the result only at
// quiescence.
func (s *Space) Stats() *Stats {
	if s.cells != nil {
		for i := range s.cells {
			if n := s.cells[i].loads.Swap(0); n != 0 {
				atomic.AddUint64(&s.stats.Loads, n)
			}
			if n := s.cells[i].stores.Swap(0); n != 0 {
				atomic.AddUint64(&s.stats.Stores, n)
			}
		}
	}
	return &s.stats
}

// StatsSnapshot returns a copy of the counters with every field loaded
// atomically and the shared-mode access cells summed in WITHOUT
// draining them — unlike Stats, it never mutates the space, so it is
// safe to call from a metrics scrape while accessing goroutines run
// (per-counter values are torn-free; cross-counter skew is bounded by
// the walk). Quiescent calls are exact.
func (s *Space) StatsSnapshot() Stats {
	snap := Stats{
		Loads:       atomic.LoadUint64(&s.stats.Loads),
		Stores:      atomic.LoadUint64(&s.stats.Stores),
		TLBHits:     atomic.LoadUint64(&s.stats.TLBHits),
		TLBMisses:   atomic.LoadUint64(&s.stats.TLBMisses),
		TLB2Misses:  atomic.LoadUint64(&s.stats.TLB2Misses),
		PagesMapped: atomic.LoadUint64(&s.stats.PagesMapped),
		PagesPeak:   atomic.LoadUint64(&s.stats.PagesPeak),
		PagesDirty:  atomic.LoadUint64(&s.stats.PagesDirty),
		Faults:      atomic.LoadUint64(&s.stats.Faults),
	}
	if s.cells != nil {
		for i := range s.cells {
			snap.Loads += s.cells[i].loads.Load()
			snap.Stores += s.cells[i].stores.Load()
		}
	}
	return snap
}

// PublishMetrics registers the space's counters as vmem.* gauges in
// the registry (internal/obs — the telemetry leaf below every layer,
// so the memory system importing it creates no cycle). Each gauge
// pulls one StatsSnapshot field at scrape time, so live scrapes are
// race-free under StatsShared.
func (s *Space) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	type g struct {
		name string
		f    func(*Stats) uint64
	}
	for _, m := range []g{
		{"vmem.loads", func(st *Stats) uint64 { return st.Loads }},
		{"vmem.stores", func(st *Stats) uint64 { return st.Stores }},
		{"vmem.tlb_hits", func(st *Stats) uint64 { return st.TLBHits }},
		{"vmem.tlb_misses", func(st *Stats) uint64 { return st.TLBMisses }},
		{"vmem.pages_mapped", func(st *Stats) uint64 { return st.PagesMapped }},
		{"vmem.pages_peak", func(st *Stats) uint64 { return st.PagesPeak }},
		{"vmem.pages_dirty", func(st *Stats) uint64 { return st.PagesDirty }},
		{"vmem.faults", func(st *Stats) uint64 { return st.Faults }},
	} {
		field := m.f
		reg.Gauge(m.name, func() float64 {
			st := s.StatsSnapshot()
			return float64(field(&st))
		})
	}
}

// PageGranularBulk marks this memory's bulk operations as page-granular:
// a chunked read or write touches exactly the pages a byte-at-a-time
// loop would touch, and no access check finer than the page exists.
// libc's string functions key their chunked fast paths on this marker;
// memories that interpose per-access semantics (the policy runtimes)
// must not implement it.
func (s *Space) PageGranularBulk() {}

// countLoads and countStores account word-granularity accesses in the
// selected stats mode, given the address of the access (bulk operations
// pass their starting address). The precise branch is the hot default;
// shared mode stripes the atomic add across cells by page number so
// workers on disjoint pages do not contend on one cacheline.
func (s *Space) countLoads(addr, n uint64) {
	if s.mode == StatsPrecise {
		s.stats.Loads += n
	} else {
		s.cells[(addr>>pageShift)&(statsCells-1)].loads.Add(n)
	}
}

func (s *Space) countStores(addr, n uint64) {
	if s.mode == StatsPrecise {
		s.stats.Stores += n
	} else {
		s.cells[(addr>>pageShift)&(statsCells-1)].stores.Add(n)
	}
}

// countFault accounts a fault. Faults are off the hot path and may be
// raised concurrently, so they are always counted atomically.
func (s *Space) countFault() { atomic.AddUint64(&s.stats.Faults, 1) }

// ensureLeaf returns the leaf covering a page number, allocating and
// publishing it on demand. Caller holds mu; readers observe the new
// leaf through atomic loads.
func (s *Space) ensureLeaf(pn uint64) *leaf {
	slot := &(*s.dir.Load())[pn>>leafBits]
	if l := slot.Load(); l != nil {
		return l
	}
	l := new(leaf)
	slot.Store(l)
	return l
}

// growDir extends the directory to cover [0, s.next), at least doubling
// it so a run of small mappings republishes O(log n) times. Caller holds
// mu.
func (s *Space) growDir() {
	cur := *s.dir.Load()
	need := int((s.next + 1<<(leafBits+pageShift) - 1) >> (leafBits + pageShift))
	if need <= len(cur) {
		return
	}
	grown := make([]atomic.Pointer[leaf], min(max(need, 2*len(cur)), dirSlots))
	for i := range cur {
		grown[i].Store(cur[i].Load())
	}
	s.dir.Store(&grown)
}

// eachFilled calls fn on every filled PTE of the pages [lo, hi): those
// with a frame. Ranges no leaf covers are skipped a leaf at a time, so
// revoking an untouched range costs nothing per page. Caller holds mu.
func (s *Space) eachFilled(lo, hi uint64, fn func(*pte)) {
	dir := *s.dir.Load()
	for pn := lo; pn < hi; pn = (pn | leafMask) + 1 {
		l := dir[pn>>leafBits].Load()
		if l == nil {
			continue
		}
		end := min(hi, (pn|leafMask)+1)
		for q := pn; q < end; q++ {
			if p := &l.ptes[q&leafMask]; p.frame.Load() != nil {
				fn(p)
			}
		}
	}
}

// allocFrame returns a page frame for a first touch, recycling frames
// released by Unmap and otherwise carving them from slab arenas that
// double from firstSlabPages to slabPages frames, so a space that
// touches a few pages zeroes a few pages. A recycled frame, or one
// carved from a pooled slab, holds old bytes: it is cleared here only
// when the space has no filler, since a filler writes every byte of the
// page (SetPageFiller). Caller holds mu.
func (s *Space) allocFrame() *frame {
	if n := len(s.freeFrames); n > 0 {
		f := s.freeFrames[n-1]
		s.freeFrames = s.freeFrames[:n-1]
		if s.filler == nil {
			clear(f[:])
		}
		return f
	}
	if s.arenaOff == len(s.arena) {
		s.arena, s.arenaDirty = takeSlab(min(max(2*len(s.arena), firstSlabPages*PageSize), slabPages*PageSize))
		s.arenaOff = 0
		s.slabs = append(s.slabs, s.arena)
	}
	f := (*frame)(s.arena[s.arenaOff : s.arenaOff+PageSize])
	s.arenaOff += PageSize
	if s.arenaDirty && s.filler == nil {
		clear(f[:])
	}
	return f
}

// slabPool holds the slabs of closed spaces, one LIFO free list per slab
// size, up to slabPoolCap bytes in all. held mirrors the pooled bytes so
// that takeSlab finds an empty pool with one atomic load and no lock.
var slabPool struct {
	mu   sync.Mutex
	held atomic.Int64
	free [slabSizes][][]byte
}

// slabClass is the pool free list for slabs of size bytes.
func slabClass(size int) int { return bits.TrailingZeros(uint(size / (firstSlabPages * PageSize))) }

// takeSlab returns a slab of size bytes: a pooled one, dirty with a
// closed space's bytes, or a freshly made one, zero.
func takeSlab(size int) (slab []byte, dirty bool) {
	if slabPool.held.Load() > 0 {
		slabPool.mu.Lock()
		free := &slabPool.free[slabClass(size)]
		if n := len(*free); n > 0 {
			slab = (*free)[n-1]
			(*free)[n-1] = nil
			*free = (*free)[:n-1]
			slabPool.held.Add(-int64(size))
		}
		slabPool.mu.Unlock()
		if slab != nil {
			return slab, true
		}
	}
	return make([]byte, size), false
}

// putSlabs pools slabs while the pool stays within slabPoolCap and
// leaves the rest to the garbage collector.
func putSlabs(slabs [][]byte) {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	for _, slab := range slabs {
		if slabPool.held.Load()+int64(len(slab)) > slabPoolCap {
			continue
		}
		free := &slabPool.free[slabClass(len(slab))]
		*free = append(*free, slab)
		slabPool.held.Add(int64(len(slab)))
	}
}

// Close releases the space: it drops every mapping and hands the space's
// frame slabs to a process-wide pool (bounded at 8 MB), from which later
// spaces carve their frames. Afterwards every load and store returns a
// *Fault whose reason is "closed space", and Map, MapGuarded, Unmap and
// Protect return ErrClosed; no access reaches the frames, which now
// belong to other spaces. The counters in Stats and StatsSnapshot keep
// their values. A second Close does nothing.
//
// Like closing a file, Close requires that no access or mapping call
// runs concurrently with it: an access racing Close may reach a frame
// another space already owns. The owner closes the space after its last
// access, and other goroutines' accesses must happen before it.
func (s *Space) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	// Revoke every translation before the frames change owner.
	s.extents = nil
	s.dir.Store(&emptyDir)
	// Hand the slabs over once: a second Close finds none left, for a
	// slab pooled twice would give two spaces the same frames.
	slabs := s.slabs
	s.slabs, s.arena, s.arenaOff, s.freeFrames = nil, nil, 0, nil
	putSlabs(slabs)
}

// Map reserves n bytes (rounded up to whole pages) with the given
// protection and returns the base address. Map records only the extent:
// each page's PTE and backing frame are filled on its first access, so
// untouched pages consume no memory at all, mirroring the paper's note
// that DieHard's reserved-but-unused partitions cost nothing. A one-page
// unmapped hole is left after every mapping so distinct mappings are never
// adjacent.
func (s *Space) Map(n int, prot Prot) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("vmem: Map size %d must be positive", n)
	}
	return s.mapPages(n, prot, 0)
}

// MapGuarded reserves n bytes of read-write memory with a no-access guard
// page immediately before and after, as DieHard places around large
// objects and its heap regions. It returns the address of the usable
// region.
func (s *Space) MapGuarded(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("vmem: MapGuarded size %d must be positive", n)
	}
	return s.mapPages(n, ProtRW, 1)
}

// mapPages is Map and MapGuarded in one locked step: it reserves n
// bytes of whole pages with prot, flanked by guard no-access pages on
// each side, at the top of the address space, so its extents append to
// the sorted list without splitting any, and returns the body's address.
func (s *Space) mapPages(n int, prot Prot, guard uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	body := uint64((n + PageSize - 1) / PageSize)
	npages := body + 2*guard
	base := s.next
	if base+(npages+1)*PageSize > maxAddr {
		return 0, fmt.Errorf("vmem: address space exhausted (%d pages requested at %#x)", npages, base)
	}
	start, end := base+guard*PageSize, base+(guard+body)*PageSize
	if guard > 0 {
		s.extents = append(s.extents, extent{start: base, end: start, prot: ProtNone})
	}
	s.extents = append(s.extents, extent{start: start, end: end, prot: prot})
	if guard > 0 {
		s.extents = append(s.extents, extent{start: end, end: end + guard*PageSize, prot: ProtNone})
	}
	s.next = base + (npages+1)*PageSize // +1: unmapped hole
	s.growDir()
	// Writers serialize on mu; the atomics are for StatsSnapshot, which
	// a metrics scrape calls without it.
	if mapped := atomic.AddUint64(&s.stats.PagesMapped, npages); mapped > s.stats.PagesPeak {
		atomic.StoreUint64(&s.stats.PagesPeak, mapped)
	}
	return start, nil
}

// findExtent returns the index of the extent containing addr, or -1.
// Caller holds mu.
func (s *Space) findExtent(addr uint64) int {
	i := sort.Search(len(s.extents), func(i int) bool { return s.extents[i].end > addr })
	if i < len(s.extents) && s.extents[i].start <= addr {
		return i
	}
	return -1
}

// carve splits extents so that [addr, addr+bytes) is covered exactly by a
// run of whole extents, returning the index range [lo, hi) of that run.
// It fails if any page in the range is unmapped. Caller holds mu.
func (s *Space) carve(addr, bytes uint64) (lo, hi int, err error) {
	end := addr + bytes
	// Verify full coverage first so failures have no side effects.
	at := addr
	for at < end {
		i := s.findExtent(at)
		if i < 0 {
			return 0, 0, &Fault{Addr: at, Kind: AccessFree, Reason: "operation on unmapped page"}
		}
		at = s.extents[i].end
	}
	lo = s.findExtent(addr)
	if s.extents[lo].start < addr {
		e := s.extents[lo]
		s.extents = append(s.extents, extent{})
		copy(s.extents[lo+1:], s.extents[lo:])
		s.extents[lo] = extent{start: e.start, end: addr, prot: e.prot}
		s.extents[lo+1].start = addr
		lo++
	}
	hi = s.findExtent(end - 1)
	if s.extents[hi].end > end {
		e := s.extents[hi]
		s.extents = append(s.extents, extent{})
		copy(s.extents[hi+1:], s.extents[hi:])
		s.extents[hi] = extent{start: e.start, end: end, prot: e.prot}
		s.extents[hi+1].start = end
	}
	return lo, hi + 1, nil
}

// Unmap removes the mapping for [addr, addr+n). addr must be page-aligned
// and the whole range must be mapped; otherwise a *Fault is returned and
// nothing is unmapped. An access racing with Unmap of the same range
// either completes before it or faults after it, as on real hardware;
// racing on memory being unmapped is a bug in the simulated program.
func (s *Space) Unmap(addr uint64, n int) error {
	if addr%PageSize != 0 || n <= 0 {
		return &Fault{Addr: addr, Kind: AccessFree, Reason: "unaligned or empty unmap"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	bytes := uint64((n+PageSize-1)/PageSize) * PageSize
	lo, hi, err := s.carve(addr, bytes)
	if err != nil {
		s.countFault()
		return err
	}
	s.extents = append(s.extents[:lo], s.extents[hi:]...)
	s.eachFilled(addr>>pageShift, (addr+bytes)>>pageShift, func(p *pte) {
		// Revoke the translation before recycling the frame so lock-free
		// readers that re-walk see the hole first.
		p.meta.Store(0)
		s.freeFrames = append(s.freeFrames, p.frame.Swap(nil))
		atomic.AddUint64(&s.stats.PagesDirty, ^uint64(0))
	})
	atomic.AddUint64(&s.stats.PagesMapped, -(bytes / PageSize))
	return nil
}

// Protect changes the protection of the page-aligned range [addr, addr+n).
// The change is visible immediately: the range's filled page-table
// entries are rewritten, and unfilled ones take the new protection from
// the extents on first touch, so there are no stale cached translations.
func (s *Space) Protect(addr uint64, n int, prot Prot) error {
	if addr%PageSize != 0 || n <= 0 {
		return &Fault{Addr: addr, Kind: AccessFree, Reason: "unaligned or empty protect"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	bytes := uint64((n+PageSize-1)/PageSize) * PageSize
	lo, hi, err := s.carve(addr, bytes)
	if err != nil {
		s.countFault()
		return err
	}
	for i := lo; i < hi; i++ {
		s.extents[i].prot = prot
	}
	s.eachFilled(addr>>pageShift, (addr+bytes)>>pageShift, func(p *pte) { p.meta.Store(uint32(prot)) })
	return nil
}

// Mapped reports whether addr lies within a mapped page (of any
// protection, touched or not).
func (s *Space) Mapped(addr uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.findExtent(addr) >= 0
}

// translate resolves an access: a two-level radix walk plus a protection
// mask test, all through atomic loads — the lock-free fast path covers
// instantiated pages with sufficient permissions. Everything else
// (faults, lazy instantiation) takes translateSlow, which serializes on
// the space mutex. It returns the page's backing frame — as a slice, so
// callers skip the array-pointer nil check, which would touch the
// frame's first cache line on every access — and the offset within it.
// kind must be AccessLoad or AccessStore.
func (s *Space) translate(addr uint64, kind AccessKind) ([]byte, uint64, error) {
	pn := addr >> pageShift
	if dir, di := *s.dir.Load(), pn>>leafBits; di < uint64(len(dir)) {
		if l := dir[di].Load(); l != nil {
			p := &l.ptes[pn&leafMask]
			// The permission bit for AccessLoad (0) is ProtRead, for
			// AccessStore (1) ProtWrite = ProtRead<<1.
			if p.meta.Load()&(uint32(ProtRead)<<kind) != 0 {
				if f := p.frame.Load(); f != nil {
					if s.tlb != nil && s.mode == StatsPrecise {
						s.tlbTouch(pn)
					}
					return f[:], addr & offMask, nil
				}
			}
		}
	}
	return s.translateSlow(addr, kind)
}

// translateSlow handles the cases the fast path rejects: unmapped pages,
// protection violations, and first touch. Under the space mutex it takes
// the page's protection from the extents and, for a permitted access,
// fills the leaf, frame, and PTE together, so first-touch races resolve
// to a single frame and the page filler runs exactly once per page.
func (s *Space) translateSlow(addr uint64, kind AccessKind) ([]byte, uint64, error) {
	pn := addr >> pageShift
	s.mu.Lock()
	i := s.findExtent(addr)
	if i < 0 {
		reason := "unmapped address"
		if s.closed {
			reason = closedReason
		}
		s.mu.Unlock()
		s.countFault()
		return nil, 0, &Fault{Addr: addr, Kind: kind, Reason: reason}
	}
	prot := s.extents[i].prot
	if prot&(ProtRead<<kind) == 0 {
		s.mu.Unlock()
		s.countFault()
		reason := "protection violation"
		if prot == ProtNone {
			reason = "guard page"
		}
		return nil, 0, &Fault{Addr: addr, Kind: kind, Reason: reason}
	}
	p := &s.ensureLeaf(pn).ptes[pn&leafMask]
	f := p.frame.Load()
	if f == nil {
		f = s.allocFrame()
		if s.filler != nil {
			s.filler(f[:])
		}
		p.frame.Store(f)
		atomic.AddUint64(&s.stats.PagesDirty, 1)
	}
	p.meta.Store(uint32(prot))
	s.mu.Unlock()
	if s.tlb != nil && s.mode == StatsPrecise {
		s.tlbTouch(pn)
	}
	return f[:], addr & offMask, nil
}

func (s *Space) tlbTouch(pn uint64) {
	t := s.tlb
	p := t.slot(pn)
	if *p&1 != 0 {
		s.stats.TLBHits++
		return
	}
	s.stats.TLBMisses++
	if t.tlbLive == tlbSize {
		t.present[t.tlbRing[t.tlbHand]] &^= 1
	} else {
		t.tlbLive++
	}
	t.tlbRing[t.tlbHand] = pn
	*p |= 1
	t.tlbHand = (t.tlbHand + 1) % tlbSize
	// Second level: a warm translation costs a short refill; a miss in
	// both levels is a cold page walk.
	if *p&2 != 0 {
		return
	}
	s.stats.TLB2Misses++
	if t.tlb2Live == tlb2Size {
		t.present[t.tlb2Ring[t.tlb2Hand]] &^= 2
	} else {
		t.tlb2Live++
	}
	t.tlb2Ring[t.tlb2Hand] = pn
	*p |= 2
	t.tlb2Hand = (t.tlb2Hand + 1) % tlb2Size
}

// Load8 loads one byte.
func (s *Space) Load8(addr uint64) (byte, error) {
	d, off, err := s.translate(addr, AccessLoad)
	if err != nil {
		return 0, err
	}
	s.countLoads(addr, 1)
	return d[off], nil
}

// Store8 stores one byte.
func (s *Space) Store8(addr uint64, v byte) error {
	d, off, err := s.translate(addr, AccessStore)
	if err != nil {
		return err
	}
	s.countStores(addr, 1)
	d[off] = v
	return nil
}

// Load32 loads a little-endian 32-bit value. The access may straddle a
// page boundary.
func (s *Space) Load32(addr uint64) (uint32, error) {
	if addr&offMask <= PageSize-4 {
		d, off, err := s.translate(addr, AccessLoad)
		if err != nil {
			return 0, err
		}
		s.countLoads(addr, 1)
		return binary.LittleEndian.Uint32(d[off:]), nil
	}
	var v uint32
	for i := uint64(0); i < 4; i++ {
		b, err := s.Load8(addr + i)
		if err != nil {
			return 0, err
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
}

// Store32 stores a little-endian 32-bit value.
func (s *Space) Store32(addr uint64, v uint32) error {
	if addr&offMask <= PageSize-4 {
		d, off, err := s.translate(addr, AccessStore)
		if err != nil {
			return err
		}
		s.countStores(addr, 1)
		binary.LittleEndian.PutUint32(d[off:], v)
		return nil
	}
	for i := uint64(0); i < 4; i++ {
		if err := s.Store8(addr+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

// Load64 loads a little-endian 64-bit value.
func (s *Space) Load64(addr uint64) (uint64, error) {
	if addr&offMask <= PageSize-8 {
		d, off, err := s.translate(addr, AccessLoad)
		if err != nil {
			return 0, err
		}
		s.countLoads(addr, 1)
		return binary.LittleEndian.Uint64(d[off:]), nil
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		b, err := s.Load8(addr + i)
		if err != nil {
			return 0, err
		}
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

// Store64 stores a little-endian 64-bit value.
func (s *Space) Store64(addr uint64, v uint64) error {
	if addr&offMask <= PageSize-8 {
		d, off, err := s.translate(addr, AccessStore)
		if err != nil {
			return err
		}
		s.countStores(addr, 1)
		binary.LittleEndian.PutUint64(d[off:], v)
		return nil
	}
	for i := uint64(0); i < 8; i++ {
		if err := s.Store8(addr+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

// Walk runs fn over [addr, addr+n) a page at a time, in address order:
// it translates each page for an access of the given kind (AccessLoad
// or AccessStore) and passes fn the address of the range's chunk on
// that page and the chunk itself, in the page's frame. fn returns how
// many of the chunk's bytes it accessed, which are counted at word
// granularity like every bulk operation, and whether the walk goes on.
// The walk stops at the first fault, before fn sees that page, and
// returns it. The bulk operations below are walks; so are callers that
// fill or check simulated memory in place.
func (s *Space) Walk(addr uint64, n int, kind AccessKind, fn func(at uint64, chunk []byte) (used int, more bool)) error {
	for done := 0; done < n; {
		at := addr + uint64(done)
		d, off, err := s.translate(at, kind)
		if err != nil {
			return err
		}
		chunk := d[off:min(int(off)+n-done, PageSize)]
		used, more := fn(at, chunk)
		if words := uint64(used+7) / 8; kind == AccessLoad {
			s.countLoads(at, words)
		} else {
			s.countStores(at, words)
		}
		if !more {
			return nil
		}
		done += len(chunk)
	}
	return nil
}

// ReadBytes fills b from the simulated memory starting at addr. Bulk
// operations count one access per 8 bytes, roughly modeling
// word-granularity copies.
func (s *Space) ReadBytes(addr uint64, b []byte) error {
	return s.Walk(addr, len(b), AccessLoad, func(at uint64, d []byte) (int, bool) {
		return copy(b[at-addr:], d), true
	})
}

// WriteBytes copies b into the simulated memory starting at addr.
func (s *Space) WriteBytes(addr uint64, b []byte) error {
	return s.Walk(addr, len(b), AccessStore, func(at uint64, d []byte) (int, bool) {
		return copy(d, b[at-addr:]), true
	})
}

// Memset writes n copies of v starting at addr: a clear when v is zero,
// 8-byte words and a ragged byte tail otherwise.
func (s *Space) Memset(addr uint64, v byte, n int) error {
	word := uint64(v) * 0x0101010101010101
	return s.Walk(addr, n, AccessStore, func(_ uint64, d []byte) (int, bool) {
		if v == 0 {
			clear(d)
			return len(d), true
		}
		i := 0
		for ; i+8 <= len(d); i += 8 {
			binary.LittleEndian.PutUint64(d[i:], word)
		}
		for ; i < len(d); i++ {
			d[i] = v
		}
		return len(d), true
	})
}

// FindByte scans forward from addr for the first occurrence of c,
// examining at most limit bytes, and returns its offset from addr. The
// scan walks the backing frames a page at a time, so it visits exactly
// the pages a byte-by-byte loop would visit and faults in the same
// places; it counts the words it examined, up to the match. found is
// false when limit bytes were examined without a match; on a fault, n
// is the number of bytes examined before the faulting page.
func (s *Space) FindByte(addr uint64, c byte, limit int) (n int, found bool, err error) {
	err = s.Walk(addr, limit, AccessLoad, func(at uint64, d []byte) (int, bool) {
		n = int(at - addr)
		if i := bytes.IndexByte(d, c); i >= 0 {
			n, found = n+i, true
			return i + 1, false
		}
		n += len(d)
		return len(d), true
	})
	return n, found, err
}

// MemMove copies n bytes from src to dst within the space, handling
// overlap like C's memmove. Non-overlapping ranges are copied page by
// page directly between backing frames; overlapping ranges go through a
// staging buffer. A fault mid-copy leaves the destination partially
// written up to the faulting page, as a real memmove would.
func (s *Space) MemMove(dst, src uint64, n int) error {
	if n <= 0 || dst == src {
		return nil
	}
	if dst < src+uint64(n) && src < dst+uint64(n) {
		// Overlapping: stage through a buffer so the source is fully
		// read before the destination is written.
		buf := make([]byte, n)
		if err := s.ReadBytes(src, buf); err != nil {
			return err
		}
		return s.WriteBytes(dst, buf)
	}
	copied := 0
	for copied < n {
		sd, soff, err := s.translate(src+uint64(copied), AccessLoad)
		if err != nil {
			return err
		}
		dd, doff, err := s.translate(dst+uint64(copied), AccessStore)
		if err != nil {
			return err
		}
		chunk := n - copied
		if c := PageSize - int(soff); c < chunk {
			chunk = c
		}
		if c := PageSize - int(doff); c < chunk {
			chunk = c
		}
		copy(dd[doff:int(doff)+chunk], sd[soff:int(soff)+chunk])
		words := uint64(chunk+7) / 8
		s.countLoads(src+uint64(copied), words)
		s.countStores(dst+uint64(copied), words)
		copied += chunk
	}
	return nil
}
