package detect

// Regression tests for the byte-wise/bulk canary paths (the satellite
// fixes in detect.go's checked view) and for the generation tier's
// evidence plumbing (gen.go): stale frees and stale accesses must
// become Evidence deterministically, on every accessor.

import (
	"testing"

	"diehard/internal/core"
	"diehard/internal/heap"
)

func newGenHeap(t *testing.T, seed uint64) *Heap {
	t.Helper()
	h, err := New(core.Options{HeapSize: 12 << 20, Seed: seed, GenTags: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestUninitByteReadDetected pins the Load8 gap: a single-byte read of
// never-written memory must produce uninitialized-read evidence — the
// byte-wise parsers that previously bypassed the word checks entirely.
func TestUninitByteReadDetected(t *testing.T) {
	h := newDetectHeap(t, 51)
	mem := h.Memory()
	p, err := h.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Load8(p + 3); err != nil {
		t.Fatal(err)
	}
	evs := evidenceOf(h.Detector().Report(), KindUninit)
	if len(evs) != 1 {
		t.Fatalf("got %d uninit evidence records after a 1-byte read, want 1: %+v", len(evs), evs)
	}
	if ev := evs[0]; ev.Audit != AuditLoad || ev.Addr != p+3 || ev.Span != 1 {
		t.Errorf("evidence = %+v; want load-audit at %#x span 1", ev, p+3)
	}
	// A written byte reads back clean.
	if err := mem.Store8(p+4, 0x7F); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Load8(p + 4); err != nil {
		t.Fatal(err)
	}
	if n := len(evidenceOf(h.Detector().Report(), KindUninit)); n != 1 {
		t.Errorf("initialized byte read produced evidence (total %d)", n)
	}
}

// TestByteSweepOverCanaryDetected pins the bulk gaps: a FindByte scan, a
// ReadBytes copy, and a MemMove whose source is wholly canary are all
// value uses of uninitialized memory and must each leave evidence.
func TestByteSweepOverCanaryDetected(t *testing.T) {
	h := newDetectHeap(t, 52)
	mem := h.Memory()

	// FindByte: a strlen-style sweep over a never-written buffer. The
	// canary pattern is nonzero by construction, so the terminator is
	// never found and the scan visits the whole range.
	p, err := h.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mem.FindByte(p, 0, 16); err != nil {
		t.Fatal(err)
	}
	evs := evidenceOf(h.Detector().Report(), KindUninit)
	if len(evs) != 1 || evs[0].Addr != p || evs[0].Span != 16 {
		t.Fatalf("FindByte sweep: evidence = %+v; want one record at %#x span 16", evs, p)
	}

	// ReadBytes: a bulk copy out of never-written memory.
	q, err := h.Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadBytes(q, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	// MemMove: propagating never-written bytes within an object.
	r, err := h.Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.MemMove(r+16, r, 8); err != nil {
		t.Fatal(err)
	}
	evs = evidenceOf(h.Detector().Report(), KindUninit)
	if len(evs) != 3 {
		t.Fatalf("got %d uninit records after sweep+copy+move, want 3: %+v", len(evs), evs)
	}
	if evs[1].Addr != q || evs[1].Span != 8 || evs[2].Addr != r || evs[2].Span != 8 {
		t.Errorf("copy/move evidence = %+v, %+v; want %#x and %#x span 8", evs[1], evs[2], q, r)
	}

	// A partially initialized range is NOT flagged: the word loads that
	// follow a staging copy own that audit.
	if err := mem.Store8(q+8, 1); err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadBytes(q+8, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if n := len(evidenceOf(h.Detector().Report(), KindUninit)); n != 3 {
		t.Errorf("partially written range flagged (total %d records)", n)
	}
}

// TestDanglingStoreDetected pins the Store8 path: a byte stored into a
// tracked freed slot is dangling-write evidence at the store itself.
func TestDanglingStoreDetected(t *testing.T) {
	h := newDetectHeap(t, 53)
	mem := h.Memory()
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Memset(p, 0x11, 64); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := mem.Store8(p+5, 0xAB); err != nil {
		t.Fatal(err)
	}
	evs := evidenceOf(h.Detector().Report(), KindDangling)
	if len(evs) != 1 {
		t.Fatalf("got %d dangling records after a stale store, want 1: %+v", len(evs), evs)
	}
	ev := evs[0]
	if ev.Audit != AuditStore || ev.Addr != p+5 || ev.Object != p || ev.AllocSite != 0 {
		t.Errorf("evidence = %+v; want store-audit at %#x, object %#x, site 0", ev, p+5, p)
	}
	// Same address again: one program error, one record.
	if err := mem.Store8(p+5, 0xCD); err != nil {
		t.Fatal(err)
	}
	if n := len(evidenceOf(h.Detector().Report(), KindDangling)); n != 1 {
		t.Errorf("duplicate stale store re-reported (total %d)", n)
	}
}

// TestStaleFreeEvidence pins the core→detect hook: a generation-checked
// double free is rejected by the allocator AND lands in the evidence
// log as KindStaleFree with the former owner's allocation site, once
// per dead incarnation.
func TestStaleFreeEvidence(t *testing.T) {
	h := newGenHeap(t, 61)
	fp, err := h.MallocFat(64)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := h.FreeFat(fp); !ok || err != nil {
		t.Fatalf("FreeFat = %v, %v", ok, err)
	}
	for i := 0; i < 3; i++ { // replay thrice: one record
		if ok, _ := h.FreeFat(fp); ok {
			t.Fatal("stale free accepted")
		}
	}
	evs := evidenceOf(h.Detector().Report(), KindStaleFree)
	if len(evs) != 1 {
		t.Fatalf("got %d stale-free records, want 1 (dedup per incarnation): %+v", len(evs), evs)
	}
	ev := evs[0]
	if ev.Audit != AuditGen || ev.Addr != fp.Addr || ev.Object != fp.Addr || ev.AllocSite != 0 ||
		ev.Span != 0 || ev.Length != 0 || ev.ObjectSize != 64 {
		t.Errorf("evidence = %+v; want a zero-span gencheck of the 64 B slot at %#x naming site 0", ev, fp.Addr)
	}
	if h.Stats().StaleFrees != 3 {
		t.Errorf("StaleFrees = %d; want 3 (the counter is per attempt, the evidence per error)",
			h.Stats().StaleFrees)
	}
}

// TestGenMemoryChecksEveryAccessor drives each accessor of the
// generation-checked view through a dead fat pointer and demands
// evidence from every one — word, byte, and bulk alike. Each round uses
// a fresh incarnation, so the (addr, gen) dedup cannot mask a missing
// check.
func TestGenMemoryChecksEveryAccessor(t *testing.T) {
	h := newGenHeap(t, 62)
	gm := h.GenMemory()
	mem := h.Memory()
	accessors := []struct {
		name string
		off  uint64 // the access's offset into the object
		span int    // and its width, as the evidence must record them
		op   func(fp heap.FatPtr) error
	}{
		{"Load8", 0, 1, func(fp heap.FatPtr) error { _, err := gm.Load8(fp, 0); return err }},
		{"Store8", 0, 1, func(fp heap.FatPtr) error { return gm.Store8(fp, 0, 1) }},
		{"Load32", 0, 4, func(fp heap.FatPtr) error { _, err := gm.Load32(fp, 0); return err }},
		{"Store32", 0, 4, func(fp heap.FatPtr) error { return gm.Store32(fp, 0, 1) }},
		{"Load64", 16, 8, func(fp heap.FatPtr) error { _, err := gm.Load64(fp, 16); return err }},
		{"Store64", 24, 8, func(fp heap.FatPtr) error { return gm.Store64(fp, 24, 1) }},
		{"ReadBytes", 0, 8, func(fp heap.FatPtr) error { return gm.ReadBytes(fp, 0, make([]byte, 8)) }},
		{"WriteBytes", 0, 8, func(fp heap.FatPtr) error { return gm.WriteBytes(fp, 0, make([]byte, 8)) }},
		{"Memset", 0, 8, func(fp heap.FatPtr) error { return gm.Memset(fp, 0, 0x55, 8) }},
		{"MemMove", 0, 8, func(fp heap.FatPtr) error { return gm.MemMove(fp, 8, 0, 8) }},
		{"FindByte", 0, 8, func(fp heap.FatPtr) error { _, _, err := gm.FindByte(fp, 0, 0x55, 8); return err }},
	}
	for i, a := range accessors {
		fp, err := h.MallocFat(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Memset(fp.Addr, 0x55, 64); err != nil {
			t.Fatal(err)
		}
		// Live access: no evidence through any accessor.
		if err := a.op(fp); err != nil {
			t.Fatalf("%s on live object: %v", a.name, err)
		}
		if n := len(evidenceOf(h.Detector().Report(), KindStaleAccess)); n != i {
			t.Fatalf("%s on a LIVE object produced stale-access evidence (%d records before free)",
				a.name, n)
		}
		if ok, err := h.FreeFat(fp); !ok || err != nil {
			t.Fatalf("FreeFat = %v, %v", ok, err)
		}
		// Dead access: tolerated, reported.
		if err := a.op(fp); err != nil {
			t.Fatalf("%s on dead object: %v (the view tolerates and reports)", a.name, err)
		}
		evs := evidenceOf(h.Detector().Report(), KindStaleAccess)
		if len(evs) != i+1 {
			t.Fatalf("%s through a dead fat pointer left no evidence (%d records, want %d)",
				a.name, len(evs), i+1)
		}
		ev := evs[i]
		if ev.Audit != AuditGen || ev.Object != fp.Addr || ev.AllocSite < 0 ||
			ev.Addr != fp.Addr+a.off || ev.Span != a.span || ev.Length != a.span {
			t.Errorf("%s evidence = %+v; want gencheck of %d B at %#x in object %#x with a culprit site",
				a.name, ev, a.span, fp.Addr+a.off, fp.Addr)
		}
		// Replay through the same dead pointer: same error, one record.
		if err := a.op(fp); err != nil {
			t.Fatal(err)
		}
		if n := len(evidenceOf(h.Detector().Report(), KindStaleAccess)); n != i+1 {
			t.Errorf("%s replay re-reported (%d records)", a.name, n)
		}
	}
}

// TestGenEvidenceFeedsAccumulator pins the heal-plane hand-off: stale
// free/access evidence streams into the cross-window Accumulator and
// convicts a culprit with the standard majority rule — nothing
// downstream special-cases the new kinds.
func TestGenEvidenceFeedsAccumulator(t *testing.T) {
	acc := &Accumulator{}
	for w := 0; w < 3; w++ { // three windows, independently seeded layouts
		h := newGenHeap(t, uint64(70+w))
		// Allocation site 0 is the bug: freed once, then replayed.
		fp, err := h.MallocFat(64)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := h.FreeFat(fp); !ok || err != nil {
			t.Fatalf("FreeFat = %v, %v", ok, err)
		}
		if ok, _ := h.FreeFat(fp); ok {
			t.Fatal("stale free accepted")
		}
		evs, _ := h.Detector().TakeEvidence()
		acc.Observe(evs, 0)
	}
	v := acc.Verdict(KindStaleFree, 2)
	if v.Culprit != 0 || v.Confidence != 1.0 {
		t.Fatalf("verdict = culprit %d confidence %.2f; want site 0 at 1.0 (deterministic tier)",
			v.Culprit, v.Confidence)
	}
}
