package core

import (
	"strings"
	"testing"

	"diehard/internal/heap"
)

// Tests for the allocator observation hooks and the slot-resolution
// primitives the detection engine (internal/detect) is built on.

func TestAllocFreeHooks(t *testing.T) {
	type ev struct {
		p         heap.Ptr
		req, slot int
		free      bool
	}
	var events []ev
	h, err := New(Options{
		HeapSize: 12 << 20,
		Seed:     11,
		OnAlloc:  func(p heap.Ptr, req, slot int) { events = append(events, ev{p, req, slot, false}) },
		OnFree:   func(p heap.Ptr, slot int) { events = append(events, ev{p: p, slot: slot, free: true}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Malloc(48)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	// Invalid and double frees must not fire the hook.
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p + 4); err != nil {
		t.Fatal(err)
	}
	// Large objects fire with page-rounded slot sizes.
	lp, err := h.Malloc(MaxObjectSize + 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(lp); err != nil {
		t.Fatal(err)
	}
	want := []ev{
		{p, 48, 64, false},
		{p: p, slot: 64, free: true},
		{lp, MaxObjectSize + 100, 5 * 4096, false},
		{p: lp, slot: 5 * 4096, free: true},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d hook events %+v, want %d", len(events), events, len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestHooksRefuseConcurrent: the hooks run unsynchronized, so New
// refuses each of them on a Concurrent heap, naming both.
func TestHooksRefuseConcurrent(t *testing.T) {
	for name, o := range map[string]Options{
		"OnAlloc":     {OnAlloc: func(heap.Ptr, int, int) {}},
		"OnFree":      {OnFree: func(heap.Ptr, int) {}},
		"OnStaleFree": {OnStaleFree: func(heap.Ptr, uint64) {}},
	} {
		o.HeapSize = 4 << 20
		if _, err := New(o); err != nil {
			t.Errorf("%s on a sequential heap refused: %v", name, err)
		}
		o.Concurrent = true
		_, err := New(o)
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "Concurrent") {
			t.Errorf("%s with Concurrent: err = %v; want a refusal naming both", name, err)
		}
	}
}

func TestSlotAt(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// Interior pointers resolve to the slot base; live must be true.
	base, size, live, ok := h.SlotAt(p + 17)
	if !ok || base != p || size != 64 || !live {
		t.Fatalf("SlotAt(p+17) = (%#x, %d, %v, %v), want (%#x, 64, true, true)", base, size, live, ok, p)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	_, _, live, ok = h.SlotAt(p)
	if !ok || live {
		t.Fatalf("SlotAt after free: live=%v ok=%v, want live=false ok=true", live, ok)
	}
	// Outside the small-object regions.
	if _, _, _, ok := h.SlotAt(0x10); ok {
		t.Error("SlotAt resolved an unmapped address")
	}
}

func TestFreeSlotsWalk(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c := ClassFor(64)
	total, _ := h.ClassSlots(c)
	live := map[heap.Ptr]bool{}
	for i := 0; i < 10; i++ {
		p, err := h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		live[p] = true
	}
	seen := 0
	prev := heap.Ptr(0)
	h.FreeSlots(c, func(p heap.Ptr) bool {
		if live[p] {
			t.Fatalf("FreeSlots yielded live slot %#x", p)
		}
		if p <= prev {
			t.Fatalf("FreeSlots out of order: %#x after %#x", p, prev)
		}
		prev = p
		seen++
		return true
	})
	if seen != total-10 {
		t.Fatalf("FreeSlots yielded %d slots, want %d", seen, total-10)
	}
	// Early termination.
	n := 0
	h.FreeSlots(c, func(p heap.Ptr) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early-terminated walk visited %d slots, want 3", n)
	}
}
