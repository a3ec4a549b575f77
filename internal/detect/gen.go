package detect

// The generation-tagged tier's evidence plumbing (DESIGN.md §15).
//
// The canary engine in detect.go is probabilistic: an error is caught
// when it damages a fingerprint, with the closed-form rates the
// analysis package quotes. The generation tier is the deterministic
// complement for *temporal* errors: the core rejects a stale free
// outright (FreeFat, the remote drain) and reports it through the
// OnStaleFree hook, and the GenMemory view checks the tag on EVERY
// accessor — including the 8-bit and bulk paths that motivated the
// satellite fixes in detect.go — so a use-after-free is evidence at the
// access itself, not a fingerprint found some audits later.
//
// Both feeds land in the same Evidence log with Kind = KindStaleFree /
// KindStaleAccess and Audit = AuditGen, carrying the former owner's
// allocation site when the slot is still tracked. Downstream nothing is
// special-cased: Triage and the streaming Accumulator adjudicate the
// new kinds with the same cross-window majority vote, so the healing
// supervisor (internal/heal) can arm countermeasures against a
// stale-free culprit exactly as it does for overflows — except that
// here a single window's testimony is already deterministic.

import (
	"diehard/internal/heap"
)

// onStaleFree is the core OnStaleFree hook: a generation-checked free
// was rejected.
func (d *Detector) onStaleFree(p heap.Ptr, gen uint64) {
	d.noteGen(KindStaleFree, heap.FatPtr{Addr: p, Gen: gen}, p, 0)
}

// noteGen records generation evidence of kind against the dead fat
// pointer fp: a rejected free (span 0) or a load or store of span bytes
// at addr through the GenMemory view. Deduplicated per (address,
// generation): replaying the same dead fat pointer is one program
// error, while the same address dying under a later tag is a fresh one.
func (d *Detector) noteGen(kind Kind, fp heap.FatPtr, addr heap.Ptr, span int) {
	k := genKey{addr: fp.Addr, gen: fp.Gen}
	if d.genSeen[k] {
		return
	}
	d.genSeen[k] = true
	site := -1
	slot := 0
	if base, size, _, ok := d.h.SlotAt(fp.Addr); ok {
		slot = size
		if fr, tracked := d.freed[base]; tracked {
			site = fr.site
		}
	}
	nl, nd := d.neighbors(addr)
	d.record(Evidence{
		Kind: kind, Audit: AuditGen,
		Addr: addr, Span: span,
		Object: fp.Addr, ObjectSize: slot,
		AllocSite: site, Length: span,
		NeighborLive: nl, NeighborDead: nd,
	})
}

// noteDanglingStore is the checked view's store-path test: a store
// whose destination lies in a tracked freed slot is a dangling write,
// recorded at the store (AuditStore) instead of waiting for the reuse
// audit to find the fingerprint. Deduplicated per address until the
// slot changes hands (forgetUninit clears the entry on reuse).
func (d *Detector) noteDanglingStore(addr heap.Ptr, span int) {
	if d.stored[addr] {
		return
	}
	base, _, live, ok := d.h.SlotAt(addr)
	if !ok || live {
		return // live object or foreign memory: not a dangling write
	}
	fr, tracked := d.freed[base]
	if !tracked {
		return // virgin space: the HeapCheckFull sweep owns it
	}
	d.stored[addr] = true
	nl, nd := d.neighbors(addr)
	d.record(Evidence{
		Kind: KindDangling, Audit: AuditStore,
		Addr: addr, Span: span,
		Object: base, ObjectSize: fr.slot,
		AllocSite: fr.site, Length: span,
		NeighborLive: nl, NeighborDead: nd,
	})
}

// rangeIsCanary reports whether [addr, addr+n) is entirely intact
// canary — the bulk-path analog of the word compares in Load32/Load64.
// Unlike audit it leaves the audit counter alone: it runs on ordinary
// reads, not on the detector's own scan schedule.
func (d *Detector) rangeIsCanary(addr heap.Ptr, n int) bool {
	first, _, err := d.scan(addr, n)
	return err == nil && first < 0
}

// GenMemory is the generation-checked memory view over a tagged
// detection heap: every accessor — word, byte, and bulk alike, the full
// heap.Memory surface — first verifies that the fat pointer's tag still
// matches its slot, records KindStaleAccess evidence when it does not,
// and then forwards to the canary-checked view, so the probabilistic
// checks keep running underneath the deterministic one.
// Tolerate-and-report, like the rest of the engine: the access proceeds
// (the memory is still mapped), the evidence is the product.
type GenMemory struct {
	h   *Heap
	mem heap.Memory
}

// GenMemory returns the generation-checked view. The heap must have
// been built with core.Options.GenTags (CheckGen reports every access
// stale otherwise, which is loud enough to catch the misconfiguration
// in any test).
func (h *Heap) GenMemory() *GenMemory {
	return &GenMemory{h: h, mem: h.Memory()}
}

// check verifies fp against its slot and records a stale access of span
// bytes at fp.Addr+off when the tag is dead.
func (g *GenMemory) check(fp heap.FatPtr, off uint64, span int) {
	if !g.h.CheckGen(fp) {
		g.h.det.noteGen(KindStaleAccess, fp, fp.Addr+off, span)
	}
}

func (g *GenMemory) Load8(fp heap.FatPtr, off uint64) (byte, error) {
	g.check(fp, off, 1)
	return g.mem.Load8(fp.Addr + off)
}

func (g *GenMemory) Store8(fp heap.FatPtr, off uint64, v byte) error {
	g.check(fp, off, 1)
	return g.mem.Store8(fp.Addr+off, v)
}

func (g *GenMemory) Load32(fp heap.FatPtr, off uint64) (uint32, error) {
	g.check(fp, off, 4)
	return g.mem.Load32(fp.Addr + off)
}

func (g *GenMemory) Store32(fp heap.FatPtr, off uint64, v uint32) error {
	g.check(fp, off, 4)
	return g.mem.Store32(fp.Addr+off, v)
}

func (g *GenMemory) Load64(fp heap.FatPtr, off uint64) (uint64, error) {
	g.check(fp, off, 8)
	return g.mem.Load64(fp.Addr + off)
}

func (g *GenMemory) Store64(fp heap.FatPtr, off uint64, v uint64) error {
	g.check(fp, off, 8)
	return g.mem.Store64(fp.Addr+off, v)
}

func (g *GenMemory) ReadBytes(fp heap.FatPtr, off uint64, b []byte) error {
	g.check(fp, off, len(b))
	return g.mem.ReadBytes(fp.Addr+off, b)
}

func (g *GenMemory) WriteBytes(fp heap.FatPtr, off uint64, b []byte) error {
	g.check(fp, off, len(b))
	return g.mem.WriteBytes(fp.Addr+off, b)
}

func (g *GenMemory) Memset(fp heap.FatPtr, off uint64, v byte, n int) error {
	g.check(fp, off, n)
	return g.mem.Memset(fp.Addr+off, v, n)
}

// MemMove moves n bytes between two offsets of the same object — both
// ends are covered by fp's single validity check.
func (g *GenMemory) MemMove(fp heap.FatPtr, dstOff, srcOff uint64, n int) error {
	g.check(fp, srcOff, n)
	return g.mem.MemMove(fp.Addr+dstOff, fp.Addr+srcOff, n)
}

func (g *GenMemory) FindByte(fp heap.FatPtr, off uint64, c byte, limit int) (int, bool, error) {
	g.check(fp, off, limit)
	return g.mem.FindByte(fp.Addr+off, c, limit)
}
