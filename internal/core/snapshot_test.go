package core

import (
	"testing"

	"diehard/internal/heap"
)

// buildWorkload runs a deterministic allocation pattern and returns the
// live pointers, so two identically seeded heaps end up with identical
// layouts.
func buildWorkload(t *testing.T, h *Heap) []heap.Ptr {
	t.Helper()
	var live []heap.Ptr
	for i := 0; i < 200; i++ {
		p, err := h.Malloc(16 + (i%4)*48)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Mem().Store64(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
		if i%3 == 2 {
			victim := live[i/2]
			if victim != heap.Null {
				if err := h.Free(victim); err != nil {
					t.Fatal(err)
				}
				live[i/2] = heap.Null
			}
		}
	}
	return live
}

func TestSnapshotIdenticalRunsAgree(t *testing.T) {
	a := testHeap(t, Options{Seed: 0xD1FF})
	b := testHeap(t, Options{Seed: 0xD1FF})
	for _, h := range []*Heap{a, b} {
		buildWorkload(t, h)
		// Large objects with distinct contents: each must be matched to
		// its own counterpart, not to whichever large object shares its
		// (Class -1, Slot 0) identity.
		for i := 0; i < 3; i++ {
			p, err := h.Malloc(MaxObjectSize + 1000*(i+1))
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Mem().Store64(p, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) == 0 {
		t.Fatal("empty snapshot")
	}
	if d := DiffSnapshots(sa, sb); len(d) != 0 {
		t.Fatalf("identical runs diverge: %v", d)
	}
}

func TestDiffPinpointsCorruption(t *testing.T) {
	// §9: differencing the heaps of a correct and an incorrect execution
	// pinpoints the exact objects a stray write hit.
	a := testHeap(t, Options{Seed: 0xD1FF})
	b := testHeap(t, Options{Seed: 0xD1FF})
	liveA := buildWorkload(t, a)
	liveB := buildWorkload(t, b)
	_ = liveA

	// The "incorrect execution": one stray 24-byte overflow from a live
	// object in run b.
	var src heap.Ptr
	for _, p := range liveB {
		if p != heap.Null {
			src = p
			break
		}
	}
	size, _ := b.SizeOf(src)
	if err := b.Mem().Memset(src+uint64(size), 0xEE, 24); err != nil {
		t.Fatal(err)
	}

	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	diffs := DiffSnapshots(sa, sb)
	// The stray write hit at most a couple of neighboring slots; if it
	// landed entirely on free space there is nothing to report, which is
	// itself DieHard's masking in action — re-run pointing at a live
	// neighbor to make the test deterministic: overwrite a live object
	// directly.
	if len(diffs) == 0 {
		victim := liveB[len(liveB)-1]
		if err := b.Mem().Store64(victim, 0xBAD); err != nil {
			t.Fatal(err)
		}
		sb, err = b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		diffs = DiffSnapshots(sa, sb)
	}
	if len(diffs) == 0 {
		t.Fatal("corruption not detected by heap differencing")
	}
	if len(diffs) > 3 {
		t.Fatalf("divergence not localized: %d objects flagged", len(diffs))
	}
	for _, d := range diffs {
		if d.Kind != "contents" {
			t.Fatalf("unexpected divergence kind: %v", d)
		}
		if d.String() == "" {
			t.Fatal("empty divergence description")
		}
	}
}

func TestDiffReportsAllocationDrift(t *testing.T) {
	a := testHeap(t, Options{Seed: 5})
	b := testHeap(t, Options{Seed: 5})
	pa, _ := a.Malloc(64)
	pb, _ := b.Malloc(64)
	if pa != pb {
		t.Fatal("identical seeds should place identically")
	}
	// Run b allocates one extra object: it shows up as only-in-b.
	extra, _ := b.Malloc(64)
	_ = extra
	sa, _ := a.Snapshot()
	sb, _ := b.Snapshot()
	diffs := DiffSnapshots(sa, sb)
	if len(diffs) != 1 || diffs[0].Kind != "only-in-b" {
		t.Fatalf("drift not reported: %v", diffs)
	}
	// And symmetrically.
	diffs = DiffSnapshots(sb, sa)
	if len(diffs) != 1 || diffs[0].Kind != "only-in-a" {
		t.Fatalf("reverse drift not reported: %v", diffs)
	}
}

func TestSnapshotIncludesLargeObjects(t *testing.T) {
	h := testHeap(t, Options{Seed: 9})
	p, err := h.Malloc(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Mem().Store64(p, 7); err != nil {
		t.Fatal(err)
	}
	snap, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range snap {
		if r.Class == -1 && r.Ptr == p && r.Size == 50_000 {
			found = true
		}
	}
	if !found {
		t.Fatal("large object missing from snapshot")
	}
}
