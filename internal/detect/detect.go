// Package detect turns DieHard's randomized heap from an error
// *tolerator* into a probabilistic error *detector*, in the lineage the
// paper sketches in §9 and that DieFast/Exterminator realized: because
// objects are placed randomly in a partially empty heap, filling all
// free space with a known canary pattern makes illegal writes leave
// fingerprints that legal executions cannot.
//
// The engine layers on internal/core through the allocator observation
// hooks (core.Options.OnAlloc/OnFree) and the lazy page filler:
//
//   - every fresh heap page is instantiated pre-filled with a seeded
//     8-byte canary pattern, aligned to absolute addresses, so all
//     never-allocated space is canary;
//   - Free audits the freed object's slack — the bytes between the
//     requested size and the size-class slot size (for large objects,
//     the trailing-page slack of the guarded mapping, audited before
//     the unmap destroys it), canary since allocation — and classifies
//     damage there as a buffer overflow by that object (the culprit
//     allocation site is exact);
//   - Free then refills the whole slot with canary and tracks it, so a
//     write through a stale pointer lands on canary;
//   - Malloc audits a reused tracked slot before the program can touch
//     it, classifying damage as a dangling write (culprit: the former
//     owner's allocation site) or, when the damage starts at the slot
//     base and the adjacent preceding slot is live, as a candidate
//     overflow by that neighbor;
//   - HeapCheck is the barrier audit over every tracked freed slot and
//     every live object's slack; HeapCheckFull additionally sweeps all
//     free slots of every size class through the class bitmaps
//     (core.FreeSlots), catching strays in virgin space at the price of
//     instantiating their pages;
//   - the checked Memory view audits 32/64-bit loads: a word that still
//     holds the canary inside a live object's requested bytes is an
//     uninitialized read (false-positive probability 2^-32 / 2^-64 per
//     load, the closed-form side of Theorem 3's detection story).
//
// Every finding is an Evidence record: page and offset of the first
// damaged byte, the damaged span, the owning slot, the nearest live and
// free neighbor slots resolved through the core heap's O(1) page index,
// and a culprit allocation-site candidate. Detection is probabilistic
// exactly as the paper's masking guarantees are: an overflow that lands
// only on live neighbors leaves no canary damage, with probability
// fullness^O per Theorem 1's complement (analysis.CanaryOverflowDetectProb).
//
// Triage (triage.go) is the cross-run half: N independently seeded
// heaps run the same deterministic program, and the culprit allocation
// site — a layout-invariant property — is the site whose evidence
// survives intersection across the randomized layouts.
//
// The engine is sequential: audits and canary refills are not
// synchronized with concurrent mallocs, so detection heaps reject
// core.Options.Concurrent. Campaigns parallelize across heaps
// (exps.RunDetectionTable), never within one.
package detect

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"diehard/internal/core"
	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/vmem"
)

// CanaryBytes is the width of the repeating canary pattern. Audited
// slack regions are at least this wide whenever the slot leaves room,
// and the acceptance experiments quote detection rates "with 8 canary
// bytes".
const CanaryBytes = 8

// Kind classifies the memory error an Evidence record witnesses.
type Kind string

const (
	// KindOverflow is a write past an object's requested size.
	KindOverflow Kind = "buffer overflow"
	// KindDangling is a write through a pointer to freed memory.
	KindDangling Kind = "dangling write"
	// KindUninit is a read of never-written allocated memory.
	KindUninit Kind = "uninitialized read"
	// KindStaleFree is a free of a generation-tagged pointer whose tag no
	// longer matches its slot — a double or dangling free, rejected
	// deterministically by the core (DESIGN.md §15).
	KindStaleFree Kind = "stale free"
	// KindStaleAccess is a load or store through a generation-tagged
	// pointer whose tag no longer matches its slot: a temporal-safety
	// violation caught at the access, deterministically, before (or
	// without) any canary fingerprint.
	KindStaleAccess Kind = "stale access"
)

// AuditPoint names where the detector observed the damage.
type AuditPoint string

const (
	// AuditFree is the slack audit when an object is freed.
	AuditFree AuditPoint = "free"
	// AuditReuse is the full-slot audit when a freed slot is reallocated.
	AuditReuse AuditPoint = "reuse"
	// AuditHeapCheck is a barrier audit (HeapCheck / HeapCheckFull).
	AuditHeapCheck AuditPoint = "heapcheck"
	// AuditLoad is the canary-match check on the checked Memory view.
	AuditLoad AuditPoint = "load"
	// AuditStore is the freed-slot check on the checked Memory view's
	// store paths: a byte stored into a tracked freed slot is a dangling
	// write caught as it happens, not at the next reuse audit.
	AuditStore AuditPoint = "store"
	// AuditGen is the generation-tag check (DESIGN.md §15): the core's
	// stale-free rejection and the generation-checked memory view's
	// per-access validity test both report here.
	AuditGen AuditPoint = "gencheck"
)

// Evidence is one detected violation with enough context to debug it:
// the paper's "crash dump without the crash", per damaged region.
type Evidence struct {
	Kind  Kind
	Audit AuditPoint
	// Addr is the first damaged (or, for uninitialized reads, the read)
	// byte; Page and Offset are its page number and in-page offset.
	Addr   heap.Ptr
	Page   uint64
	Offset int
	// Span is the length in bytes of the damaged region.
	Span int
	// Object is the base of the slot holding the damage and ObjectSize
	// its slot size.
	Object     heap.Ptr
	ObjectSize int
	// AllocSite is the culprit candidate: the allocation index (in
	// program allocation order, which is layout-invariant) of the object
	// the damage is attributed to. -1 when no candidate exists.
	AllocSite int
	// Length is the inferred error extent: for overflows, how far past
	// the culprit object's end the damage reaches; for dangling writes
	// and uninitialized reads, the damaged/read span.
	Length int
	// NeighborLive and NeighborDead are the nearest live and free slot
	// bases around the damage, resolved through the core page index;
	// zero when none was found within the scan radius.
	NeighborLive heap.Ptr
	NeighborDead heap.Ptr
}

// Options configures a Detector.
type Options struct {
	// HeapCheckEvery, when positive, runs an automatic HeapCheck every
	// that many allocations — the heap-check barrier of the engine.
	HeapCheckEvery int
	// HeapCheckMin, when positive (and below HeapCheckEvery), makes the
	// barrier cadence adaptive (DESIGN.md §13): a barrier that finds
	// fresh evidence tightens the interval to HeapCheckMin — errors
	// cluster, and a tight cadence localizes damage to a narrow
	// allocation window — and every clean barrier doubles it until it
	// relaxes back to HeapCheckEvery. Zero keeps the fixed cadence;
	// with a fixed cadence the barrier schedule is exactly the modulo
	// schedule of PR 4, so recorded campaign hashes are unaffected.
	HeapCheckMin int
	// MaxEvidence caps the evidence log (default 1024); further findings
	// are counted in Report.Dropped.
	MaxEvidence int
	// Trace, when non-nil, is the detector's flight-recorder ring
	// (internal/obs): every recorded Evidence emits one stamped
	// EvEvidence event carrying the culprit allocation site, and every
	// heap-check barrier emits an EvBarrier, so corruption shows up on
	// the same merged timeline as the allocator events around it. Nil
	// (the zero value) costs one pointer check per site.
	Trace *obs.Ring
}

// objRec tracks one live allocation.
type objRec struct {
	site  int // allocation index, program order
	req   int // requested bytes
	slot  int // backing slot bytes
	large bool
}

// freedRec tracks a canary-filled freed slot awaiting audit.
type freedRec struct {
	slot int
	site int // allocation site of the former owner
}

// Detector holds the canary state and the evidence log for one heap.
type Detector struct {
	h     *core.Heap
	space *vmem.Space
	opts  Options

	pat       [CanaryBytes]byte
	words     [CanaryBytes]uint64 // canary64 for each addr&7 phase
	clock     int
	objects   map[heap.Ptr]objRec
	freed     map[heap.Ptr]freedRec
	evidence  []Evidence
	dropped   int
	checks    int
	audits    int               // cumulative canary audits performed (free/reuse/barrier scans)
	found     int               // cumulative evidence ever recorded (survives TakeEvidence)
	lastFound int               // found at the previous automatic barrier
	cadence   int               // current barrier interval (= HeapCheckEvery when fixed)
	nextCheck int               // clock value that triggers the next automatic barrier
	seen      map[heap.Ptr]bool // uninit dedup by address
	stored    map[heap.Ptr]bool // dangling-store dedup by address
	genSeen   map[genKey]bool   // stale free/access dedup by (addr, generation)
}

// genKey dedups generation evidence per incarnation: a second stale
// free or a second stale access through the same fat pointer is the
// same program error, but the same address under a *new* dead tag is a
// fresh one.
type genKey struct {
	addr heap.Ptr
	gen  uint64
}

// Heap couples a DieHard core heap with its attached Detector. The
// embedded core heap provides the full allocator interface; Malloc and
// Free fire the detector through the core hooks.
type Heap struct {
	*core.Heap
	det *Detector
}

var _ heap.Allocator = (*Heap)(nil)

// New builds a DieHard heap with canary detection attached. The core
// options must not request Concurrent (detection is sequential) or
// RandomFill (the canary pattern is the fill).
func New(copts core.Options, dopts Options) (*Heap, error) {
	if copts.Concurrent {
		return nil, fmt.Errorf("detect: canary detection is sequential; Concurrent heaps are not supported")
	}
	if copts.RandomFill {
		return nil, fmt.Errorf("detect: RandomFill and canary fill are mutually exclusive")
	}
	if dopts.MaxEvidence == 0 {
		dopts.MaxEvidence = 1024
	}
	if dopts.HeapCheckMin < 0 || (dopts.HeapCheckMin > 0 && dopts.HeapCheckMin > dopts.HeapCheckEvery) {
		// The second clause also rejects a floor without a ceiling
		// (HeapCheckEvery = 0): there is no schedule to adapt.
		return nil, fmt.Errorf("detect: HeapCheckMin %d must lie in [0, HeapCheckEvery=%d]", dopts.HeapCheckMin, dopts.HeapCheckEvery)
	}
	d := &Detector{
		opts:      dopts,
		cadence:   dopts.HeapCheckEvery,
		nextCheck: dopts.HeapCheckEvery,
		objects:   make(map[heap.Ptr]objRec),
		freed:     make(map[heap.Ptr]freedRec),
		seen:      make(map[heap.Ptr]bool),
		stored:    make(map[heap.Ptr]bool),
		genSeen:   make(map[genKey]bool),
	}
	copts.OnAlloc = d.onAlloc
	copts.OnFree = d.onFree
	copts.OnStaleFree = d.onStaleFree
	h, err := core.New(copts)
	if err != nil {
		return nil, err
	}
	d.h = h
	d.space = h.Mem()
	// The canary pattern derives from the heap's layout seed, so
	// differently seeded heaps also carry different canaries (what makes
	// replicated detection replicas diverge on uninitialized reads).
	d.pat = canaryPattern(h.Seed())
	for phase := 0; phase < CanaryBytes; phase++ {
		var w uint64
		for i := 0; i < 8; i++ {
			w |= uint64(d.pat[(phase+i)&7]) << (8 * i)
		}
		d.words[phase] = w
	}
	// Every page the heap ever instantiates starts as canary: the
	// detection analog of replicated mode's random fill, realized
	// through the same lazy page filler. Page frames are page-aligned,
	// so a frame starts at phase 0 of the absolute-address pattern.
	d.space.SetPageFiller(func(b []byte) { d.pattern(0, b) })
	return &Heap{Heap: h, det: d}, nil
}

// Detector returns the attached detector.
func (h *Heap) Detector() *Detector { return h.det }

// Name identifies the allocator in experiment reports.
func (h *Heap) Name() string { return "diehard-detect" }

// Memory returns the canary-checking view of the heap's address space:
// 32- and 64-bit loads that return the canary word for their address,
// from within a live object's requested bytes, are recorded as
// uninitialized-read evidence. All other operations forward unchanged.
func (h *Heap) Memory() heap.Memory { return &checkedMem{s: h.det.space, d: h.det} }

// canaryPattern derives the 8-byte pattern from a seed with a SplitMix64
// finalizer. Zero bytes are remapped: zero is by far the most common
// legitimate memory value, and an audit cannot distinguish "program
// wrote the canary byte" from intact canary, so every pattern byte is
// kept nonzero to keep that collision rare.
func canaryPattern(seed uint64) [CanaryBytes]byte {
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	var pat [CanaryBytes]byte
	for i := range pat {
		b := byte(z >> (8 * i))
		if b == 0 {
			b = 0xA5 ^ byte(i)
		}
		pat[i] = b
	}
	return pat
}

// canary64 returns the canary word a correctly aligned 8-byte load at
// addr would observe.
func (d *Detector) canary64(addr heap.Ptr) uint64 { return d.words[addr&7] }

// canary32 is the 32-bit analog.
func (d *Detector) canary32(addr heap.Ptr) uint32 { return uint32(d.words[addr&7]) }

// pattern writes into b the canary of the bytes at address at: the
// first word for at's phase, then doubling copies, which stay in phase
// because the pattern's period is 8.
func (d *Detector) pattern(at heap.Ptr, b []byte) {
	var w [CanaryBytes]byte
	binary.LittleEndian.PutUint64(w[:], d.canary64(at))
	for n := copy(b, w[:]); n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// damage compares b, the bytes at address at, against the canary and
// returns the offsets of the first and the last damaged byte, or -1 and
// -1 when b is intact. It compares 8-byte words (every word of b starts
// at at's phase) and reads the damaged bytes from the trailing and
// leading zero counts of the XOR; only the ragged end goes byte by
// byte.
func (d *Detector) damage(at heap.Ptr, b []byte) (first, last int) {
	first, last = -1, -1
	w := d.canary64(at)
	off := 0
	// Intact canary is the common case: skip it 32 bytes at a time.
	for le := binary.LittleEndian; len(b) >= 32; b, off = b[32:], off+32 {
		if (le.Uint64(b)^w)|(le.Uint64(b[8:])^w)|(le.Uint64(b[16:])^w)|(le.Uint64(b[24:])^w) != 0 {
			break
		}
	}
	for ; len(b) >= 8; b, off = b[8:], off+8 {
		if x := binary.LittleEndian.Uint64(b) ^ w; x != 0 {
			if first < 0 {
				first = off + bits.TrailingZeros64(x)/8
			}
			last = off + 7 - bits.LeadingZeros64(x)/8
		}
	}
	for i, c := range b {
		if c != byte(w>>(8*i)) {
			if first < 0 {
				first = off + i
			}
			last = off + i
		}
	}
	return first, last
}

// record appends evidence, respecting the cap.
func (d *Detector) record(ev Evidence) {
	d.found++
	if d.opts.Trace != nil {
		d.opts.Trace.Emit(obs.EvEvidence, uint64(ev.AllocSite))
	}
	if len(d.evidence) >= d.opts.MaxEvidence {
		d.dropped++
		return
	}
	ev.Page = ev.Addr / vmem.PageSize
	ev.Offset = int(ev.Addr % vmem.PageSize)
	d.evidence = append(d.evidence, ev)
}

// forgetUninit clears the uninit-read dedup entries inside [p, p+n):
// once a slot changes hands, a canary match there is a fresh violation
// by the new owner, not a repeat of the old one. The dedup map only
// ever holds flagged addresses (bugs are rare), so the sweep is cheap.
func (d *Detector) forgetUninit(p heap.Ptr, n int) {
	for addr := range d.seen {
		if addr >= p && addr < p+heap.Ptr(n) {
			delete(d.seen, addr)
		}
	}
	for addr := range d.stored {
		if addr >= p && addr < p+heap.Ptr(n) {
			delete(d.stored, addr)
		}
	}
}

// refill restores the canary over [p, p+n), in place.
func (d *Detector) refill(p heap.Ptr, n int) {
	// The slot belongs to the heap and is mapped read-write; a write
	// failure would mean corrupted allocator metadata, which core's own
	// invariants guard against.
	_ = d.space.Walk(p, n, vmem.AccessStore, func(at uint64, b []byte) (int, bool) {
		d.pattern(at, b)
		return len(b), true
	})
}

// audit scans [p, p+n) for canary damage and returns the first damaged
// offset and the damaged span (first to last damaged byte, inclusive).
// ok is false when the region is intact or unreadable.
func (d *Detector) audit(p heap.Ptr, n int) (first, span int, ok bool) {
	d.audits++
	first, last, err := d.scan(p, n)
	if err != nil || first < 0 {
		return 0, 0, false
	}
	return first, last - first + 1, true
}

// scan runs damage over [p, p+n) in place, through the page walk, and
// returns the offsets of the first and the last damaged byte (-1 and -1
// when intact), or the walk's fault.
func (d *Detector) scan(p heap.Ptr, n int) (first, last int, err error) {
	first, last = -1, -1
	err = d.space.Walk(p, n, vmem.AccessLoad, func(at uint64, b []byte) (int, bool) {
		if f, l := d.damage(at, b); f >= 0 {
			if first < 0 {
				first = int(at-p) + f
			}
			last = int(at-p) + l
		}
		return len(b), true
	})
	return first, last, err
}

// neighbors resolves the nearest live and free slot bases around addr
// through the core page index, scanning up to four slots each way
// (nearest first, below before above). Zero means none found.
func (d *Detector) neighbors(addr heap.Ptr) (live, dead heap.Ptr) {
	base, size, _, ok := d.h.SlotAt(addr)
	if !ok {
		return 0, 0
	}
	for k := 1; k <= 4 && (live == 0 || dead == 0); k++ {
		step := heap.Ptr(k * size)
		for _, cand := range []heap.Ptr{base - step, base + step} {
			b, _, lv, ok := d.h.SlotAt(cand)
			if !ok || b != cand {
				continue // different class or off the subregion
			}
			if lv && live == 0 {
				live = b
			}
			if !lv && dead == 0 {
				dead = b
			}
		}
	}
	return live, dead
}

// onAlloc is the core OnAlloc hook: audit-on-reuse, then (re)arm the
// slot's canary and register the allocation.
func (d *Detector) onAlloc(p heap.Ptr, req, slot int) {
	site := d.clock
	d.clock++
	large := req > core.MaxObjectSize
	if !large {
		if fr, ok := d.freed[p]; ok {
			d.auditFreedSlot(p, fr, AuditReuse)
			delete(d.freed, p)
			// Hand the program a clean canary slot regardless of what the
			// audit found, so uninitialized reads of recycled memory are
			// detected exactly like reads of virgin memory — including
			// clearing the uninit dedup for the recycled addresses.
			d.refill(p, fr.slot)
			d.forgetUninit(p, fr.slot)
		}
	}
	d.objects[p] = objRec{site: site, req: req, slot: slot, large: large}
	if d.opts.HeapCheckEvery > 0 && d.clock >= d.nextCheck {
		// With a fixed cadence this fires at exactly the modulo schedule
		// (clock = k·HeapCheckEvery): the clock advances one allocation
		// at a time and barriers never allocate, so clock == nextCheck
		// whenever the guard passes.
		d.HeapCheck()
		if d.opts.HeapCheckMin > 0 {
			// Adapt on evidence from *any* audit point since the last
			// barrier — free, reuse, load, or this barrier itself. Errors
			// cluster, so fresh evidence anywhere argues for tighter
			// barriers; a clean interval argues for backing off.
			if d.found > d.lastFound {
				d.cadence = d.opts.HeapCheckMin
			} else if d.cadence < d.opts.HeapCheckEvery {
				d.cadence *= 2
				if d.cadence > d.opts.HeapCheckEvery {
					d.cadence = d.opts.HeapCheckEvery
				}
			}
		}
		d.lastFound = d.found
		d.nextCheck = d.clock + d.cadence
	}
}

// onFree is the core OnFree hook: audit the slack, then arm the freed
// slot.
func (d *Detector) onFree(p heap.Ptr, slot int) {
	rec, ok := d.objects[p]
	if !ok {
		return
	}
	delete(d.objects, p)
	if rec.large {
		// Core fires OnFree for large objects *before* the guarded
		// mapping is unmapped, so the trailing-page slack — canary since
		// the page filler instantiated it — gets its audit here, at
		// free, not only at heap-check barriers while the object lived
		// (the PR-4 gap). There is nothing to re-arm or track: the
		// mapping disappears as soon as this hook returns.
		d.auditSlack(p, rec, AuditFree)
		return
	}
	d.auditSlack(p, rec, AuditFree)
	d.refill(p, rec.slot)
	d.freed[p] = freedRec{slot: rec.slot, site: rec.site}
}

// auditSlack audits a live object's slack bytes [req, slot) and records
// damage as an overflow by that object — the one case where the culprit
// is exact without triage.
func (d *Detector) auditSlack(p heap.Ptr, rec objRec, at AuditPoint) {
	if rec.req >= rec.slot {
		return
	}
	start := p + heap.Ptr(rec.req)
	first, span, damaged := d.audit(start, rec.slot-rec.req)
	if !damaged {
		return
	}
	live, dead := d.neighbors(start)
	d.record(Evidence{
		Kind: KindOverflow, Audit: at,
		Addr: start + heap.Ptr(first), Span: span,
		Object: p, ObjectSize: rec.slot,
		AllocSite: rec.site,
		// Damage extent past the object's requested end.
		Length:       first + span,
		NeighborLive: live, NeighborDead: dead,
	})
	if at == AuditHeapCheck {
		// Re-arm so the same damage is not re-reported every barrier.
		d.refill(start, rec.slot-rec.req)
	}
}

// auditFreedSlot audits a canary-armed freed slot. Damage is a dangling
// write through a stale pointer to the former owner — unless it starts
// at the very base of the slot while the adjacent preceding slot holds
// a live object, in which case an overflow by that neighbor is equally
// consistent and both interpretations are recorded as candidates; the
// cross-layout intersection (Triage) separates them, because the true
// culprit's allocation site recurs in every randomized layout. The
// HeapCheckFull sweep audits untracked free slots through it too, as
// slots with no former owner (site -1).
func (d *Detector) auditFreedSlot(p heap.Ptr, fr freedRec, at AuditPoint) bool {
	first, span, damaged := d.audit(p, fr.slot)
	if !damaged {
		return false
	}
	addr := p + heap.Ptr(first)
	live, dead := d.neighbors(addr)
	d.record(Evidence{
		Kind: KindDangling, Audit: at,
		Addr: addr, Span: span,
		Object: p, ObjectSize: fr.slot,
		AllocSite: fr.site, Length: span,
		NeighborLive: live, NeighborDead: dead,
	})
	d.recordNeighborOverflow(p, first, span, fr.slot, at, live, dead)
	if at == AuditHeapCheck {
		d.refill(p, fr.slot)
	}
	return true
}

// recordNeighborOverflow records the overflow-candidate reading of
// free-slot damage: when the damage starts at the very base of the slot
// and the adjacent preceding slot holds a live tracked object, an
// overflow by that neighbor is equally consistent with a dangling
// write, so a second Evidence record names it — the cross-layout
// intersection (Triage) separates the two interpretations.
func (d *Detector) recordNeighborOverflow(p heap.Ptr, first, span, slotSize int, at AuditPoint, live, dead heap.Ptr) {
	if first != 0 {
		return
	}
	prev, _, lv, ok := d.h.SlotAt(p - 1)
	if !ok || !lv {
		return
	}
	rec, tracked := d.objects[prev]
	if !tracked {
		return
	}
	d.record(Evidence{
		Kind: KindOverflow, Audit: at,
		Addr: p, Span: span,
		Object: p, ObjectSize: slotSize,
		AllocSite: rec.site,
		// Extent past the neighbor's requested end: its own slack plus
		// the damage reach into this slot.
		Length:       (rec.slot - rec.req) + span,
		NeighborLive: live, NeighborDead: dead,
	})
}

// noteUninit records an uninitialized read observed by the checked
// Memory view.
func (d *Detector) noteUninit(addr heap.Ptr, span int) {
	if d.seen[addr] {
		return
	}
	base, _, live, ok := d.h.SlotAt(addr)
	if !ok || !live {
		return // free space or foreign memory: not an uninitialized read
	}
	rec, tracked := d.objects[base]
	if !tracked || int(addr-base)+span > rec.req {
		return // slack or untracked: audited elsewhere
	}
	d.seen[addr] = true
	nl, nd := d.neighbors(addr)
	d.record(Evidence{
		Kind: KindUninit, Audit: AuditLoad,
		Addr: addr, Span: span,
		Object: base, ObjectSize: rec.slot,
		AllocSite: rec.site, Length: span,
		NeighborLive: nl, NeighborDead: nd,
	})
}

// sortedPtrs returns map keys in ascending address order, the
// deterministic iteration order of the barrier audits.
func sortedPtrs[V any](m map[heap.Ptr]V) []heap.Ptr {
	ps := make([]heap.Ptr, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}

// HeapCheck is the barrier audit: every tracked freed slot and every
// live object's slack, in address order. It returns the number of new
// evidence records. Damage found at a barrier is re-armed so the same
// bytes are reported once.
func (d *Detector) HeapCheck() int {
	before := len(d.evidence) + d.dropped
	d.checks++
	if d.opts.Trace != nil {
		d.opts.Trace.Emit(obs.EvBarrier, uint64(d.clock))
	}
	for _, p := range sortedPtrs(d.freed) {
		d.auditFreedSlot(p, d.freed[p], AuditHeapCheck)
	}
	for _, p := range sortedPtrs(d.objects) {
		// Large objects are audited here too: their slack (requested size
		// to the end of the last mapped page) is canary while they live.
		// Their final audit happens at free, just before the unmap.
		d.auditSlack(p, d.objects[p], AuditHeapCheck)
	}
	return len(d.evidence) + d.dropped - before
}

// HeapCheckFull extends HeapCheck with a sweep of every free slot of
// every size class through the class bitmaps, catching stray writes
// into virgin never-allocated space. Auditing a virgin slot
// instantiates its page (as canary), so a full sweep of a large,
// mostly-untouched heap is expensive; campaigns run it on deliberately
// small heaps.
func (d *Detector) HeapCheckFull() int {
	n := d.HeapCheck()
	before := len(d.evidence) + d.dropped
	for c := 0; c < core.NumClasses; c++ {
		size := core.ClassSize(c)
		d.h.FreeSlots(c, func(p heap.Ptr) bool {
			if _, tracked := d.freed[p]; !tracked { // HeapCheck audited the tracked ones
				d.auditFreedSlot(p, freedRec{slot: size, site: -1}, AuditHeapCheck)
			}
			return true
		})
	}
	return n + len(d.evidence) + d.dropped - before
}

// Report is a snapshot of a detector's findings.
type Report struct {
	// Seed is the heap's layout seed; evidence is only comparable across
	// reports from different seeds (that is the whole point of triage).
	Seed uint64
	// Allocs and Checks count allocations observed and barrier audits
	// run; Dropped counts evidence lost to the MaxEvidence cap.
	Allocs  int
	Checks  int
	Dropped int
	// Evidence is the log in detection order.
	Evidence []Evidence
}

// Report snapshots the detector's state.
func (d *Detector) Report() *Report {
	return &Report{
		Seed:     d.h.Seed(),
		Allocs:   d.clock,
		Checks:   d.checks,
		Dropped:  d.dropped,
		Evidence: append([]Evidence(nil), d.evidence...),
	}
}

// TakeEvidence drains the evidence log: the accumulated records (and the
// overflow count the MaxEvidence cap dropped) are returned and the log
// resets. This is the supervisor's export path (internal/heal): evidence
// streams out window by window into an Accumulator instead of growing —
// and saturating — one per-detector log across a long-running service.
func (d *Detector) TakeEvidence() (evs []Evidence, dropped int) {
	evs = d.evidence
	dropped = d.dropped
	d.evidence = nil
	d.dropped = 0
	return evs, dropped
}

// Cadence reports the current automatic barrier interval: HeapCheckEvery
// when the cadence is fixed, and the adaptive interval in
// [HeapCheckMin, HeapCheckEvery] when HeapCheckMin engages it.
func (d *Detector) Cadence() int { return d.cadence }

// Clock reports the allocation index the next allocation will receive —
// the detector's site-numbering clock.
func (d *Detector) Clock() int { return d.clock }

// Audits reports the cumulative number of canary audits performed
// (free-time, reuse-time, and barrier scans).
func (d *Detector) Audits() int { return d.audits }

// Found reports the cumulative evidence ever recorded, surviving
// TakeEvidence drains (unlike len(Report().Evidence)).
func (d *Detector) Found() int { return d.found }

// PublishMetrics registers the detector's counters as detect.* gauges
// in the registry. The detection engine is sequential by contract, so
// the gauges read plain fields; scrape from the detector's own
// goroutine or at quiescence (the supervisor does both).
func (d *Detector) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("detect.canary_audits", func() float64 { return float64(d.audits) })
	reg.Gauge("detect.heap_checks", func() float64 { return float64(d.checks) })
	reg.Gauge("detect.evidence", func() float64 { return float64(d.found) })
	reg.Gauge("detect.evidence_dropped", func() float64 { return float64(d.dropped) })
	reg.Gauge("detect.cadence", func() float64 { return float64(d.cadence) })
	reg.Gauge("detect.allocs", func() float64 { return float64(d.clock) })
}

// checkedMem is the canary-auditing Memory view.
type checkedMem struct {
	s *vmem.Space
	d *Detector
}

var _ heap.Memory = (*checkedMem)(nil)

// Load8 audits the loaded byte: a canary-byte match inside a live
// object's requested bytes is an uninitialized read. The per-byte
// false-positive probability is 2^-8 — far weaker than the word checks,
// but the alternative is the gap this closes: byte-wise parsers (the
// most common real access pattern for string data) previously bypassed
// detection entirely.
func (m *checkedMem) Load8(addr uint64) (byte, error) {
	v, err := m.s.Load8(addr)
	if err == nil && v == m.d.pat[addr&7] {
		m.d.noteUninit(addr, 1)
	}
	return v, err
}

// Store8 checks the destination before writing: a store into a tracked
// freed slot is a dangling write, reported at the store itself (the
// reuse audit would find only the fingerprint, one owner later).
func (m *checkedMem) Store8(addr uint64, v byte) error {
	m.d.noteDanglingStore(addr, 1)
	return m.s.Store8(addr, v)
}

// Load32 audits the loaded word: a 32-bit canary match inside a live
// object is an uninitialized read with false-positive probability 2^-32.
func (m *checkedMem) Load32(addr uint64) (uint32, error) {
	v, err := m.s.Load32(addr)
	if err == nil && v == m.d.canary32(addr) {
		m.d.noteUninit(addr, 4)
	}
	return v, err
}

func (m *checkedMem) Store32(addr uint64, v uint32) error { return m.s.Store32(addr, v) }

// Load64 audits the loaded word against the canary (false-positive
// probability 2^-64).
func (m *checkedMem) Load64(addr uint64) (uint64, error) {
	v, err := m.s.Load64(addr)
	if err == nil && v == m.d.canary64(addr) {
		m.d.noteUninit(addr, 8)
	}
	return v, err
}

func (m *checkedMem) Store64(addr uint64, v uint64) error { return m.s.Store64(addr, v) }

// ReadBytes audits the copied range as a whole: a bulk read whose every
// byte is still intact canary is a value use of never-written memory
// (a partially written range is not flagged — the word loads that
// follow a staging copy audit those exactly, without double counting).
// The check compares b itself, which already holds the bytes.
func (m *checkedMem) ReadBytes(addr uint64, b []byte) error {
	err := m.s.ReadBytes(addr, b)
	if err == nil && len(b) > 0 {
		if first, _ := m.d.damage(addr, b); first < 0 {
			m.d.noteUninit(addr, len(b))
		}
	}
	return err
}

func (m *checkedMem) WriteBytes(addr uint64, b []byte) error { return m.s.WriteBytes(addr, b) }

func (m *checkedMem) Memset(addr uint64, v byte, n int) error { return m.s.Memset(addr, v, n) }

// MemMove audits the source before the copy runs (an overlapping move
// may destroy it): a wholly-canary source inside a live object means
// the program is propagating uninitialized bytes.
func (m *checkedMem) MemMove(dst, src uint64, n int) error {
	if n > 0 && m.d.rangeIsCanary(src, n) {
		m.d.noteUninit(src, n)
	}
	return m.s.MemMove(dst, src, n)
}

// FindByte audits the bytes the scan actually visited — a libc-style
// strlen/memchr over memory that is all still canary is a read of
// uninitialized string data, the byte-wise sweep the word checks could
// never see.
func (m *checkedMem) FindByte(addr uint64, c byte, limit int) (int, bool, error) {
	n, found, err := m.s.FindByte(addr, c, limit)
	if err == nil {
		visited := limit
		if found {
			visited = n + 1
		}
		if visited > 0 && m.d.rangeIsCanary(addr, visited) {
			m.d.noteUninit(addr, visited)
		}
	}
	return n, found, err
}
