package core

import (
	"fmt"

	"diehard/internal/heap"
)

// This file implements the heap-differencing debugger sketched in the
// paper's §9: "By differencing the heaps of correct and incorrect
// executions of applications, it may be possible to pinpoint the exact
// locations of memory errors and report these as part of a crash dump
// without the crash."
//
// Two runs of a deterministic program on identically seeded DieHard
// heaps produce identical layouts, so any divergence between their
// snapshots localizes the memory error to the exact objects whose
// contents differ.

// ObjectRecord captures one live object's identity and contents hash in
// a snapshot.
type ObjectRecord struct {
	Class int
	Slot  int
	Ptr   heap.Ptr
	Size  int
	Hash  uint64
}

// Snapshot records every live small object (class, slot, contents
// hash). Large objects are included with Class = -1 and Slot = 0. For
// a meaningful snapshot the heap should be quiescent.
func (h *Heap) Snapshot() ([]ObjectRecord, error) {
	var records []ObjectRecord
	buf := make([]byte, MaxObjectSize)
	for c := range h.classes {
		cl := &h.classes[c]
		sub := cl.sub
		for i := 0; i < sub.slots; i++ {
			// Atomic bit read, so a scan racing CAS claimants stays
			// clean under -race (the quiescence the doc asks for is
			// what makes the result meaningful).
			if !sub.getAtomic(i) {
				continue
			}
			ptr := sub.base + uint64(i*cl.size)
			if err := h.space.ReadBytes(ptr, buf[:cl.size]); err != nil {
				return nil, err
			}
			records = append(records, ObjectRecord{
				Class: c,
				Slot:  i,
				Ptr:   ptr,
				Size:  cl.size,
				Hash:  hashBytes(buf[:cl.size]),
			})
		}
	}
	h.largeMu.Lock()
	defer h.largeMu.Unlock()
	for base, lo := range h.large {
		chunk := make([]byte, lo.size)
		if err := h.space.ReadBytes(base, chunk); err != nil {
			return nil, err
		}
		records = append(records, ObjectRecord{
			Class: -1,
			Ptr:   base,
			Size:  lo.size,
			Hash:  hashBytes(chunk),
		})
	}
	return records, nil
}

func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range b {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

// Divergence reports one object whose state differs between two
// snapshots.
type Divergence struct {
	Class int
	Slot  int
	Ptr   heap.Ptr
	Size  int
	// Kind describes how the snapshots differ for this object.
	Kind string // "contents", "only-in-a", "only-in-b"
}

func (d Divergence) String() string {
	return fmt.Sprintf("class %d slot %d at %#x (%d bytes): %s", d.Class, d.Slot, d.Ptr, d.Size, d.Kind)
}

// DiffSnapshots compares two snapshots taken from identically seeded
// heaps running the same program and returns the objects that diverge —
// the §9 crash-dump-without-the-crash. An empty result means the heaps
// are observably identical. Small objects are matched by (class, slot),
// large objects, which all share Class -1 and Slot 0, by address.
func DiffSnapshots(a, b []ObjectRecord) []Divergence {
	key := func(r ObjectRecord) [2]uint64 {
		if r.Class < 0 {
			return [2]uint64{^uint64(0), r.Ptr}
		}
		return [2]uint64{uint64(r.Class), uint64(r.Slot)}
	}
	am := make(map[[2]uint64]ObjectRecord, len(a))
	for _, r := range a {
		am[key(r)] = r
	}
	var out []Divergence
	seen := make(map[[2]uint64]bool, len(b))
	for _, rb := range b {
		k := key(rb)
		seen[k] = true
		ra, ok := am[k]
		if !ok {
			out = append(out, Divergence{Class: rb.Class, Slot: rb.Slot, Ptr: rb.Ptr, Size: rb.Size, Kind: "only-in-b"})
			continue
		}
		if ra.Hash != rb.Hash {
			out = append(out, Divergence{Class: rb.Class, Slot: rb.Slot, Ptr: rb.Ptr, Size: rb.Size, Kind: "contents"})
		}
	}
	for _, ra := range a {
		if !seen[key(ra)] {
			out = append(out, Divergence{Class: ra.Class, Slot: ra.Slot, Ptr: ra.Ptr, Size: ra.Size, Kind: "only-in-a"})
		}
	}
	return out
}
