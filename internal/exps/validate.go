package exps

import (
	"fmt"

	"diehard/internal/core"
	"diehard/internal/heap"
	"diehard/internal/rng"
)

// This file validates the Figure 4 probability formulas against the
// real allocator (not just the abstract Monte Carlo model in
// internal/analysis): objects are placed by the actual randomized
// allocator and the masking events are observed directly.

// EmpiricalOverflowMask measures, on real DieHard heaps, the probability
// that a one-object overflow lands on free space in at least one of k
// replicas, with the target size class filled to the given fraction.
// Compare with analysis.OverflowMaskProb(fullness, 1, k).
func EmpiricalOverflowMask(fullness float64, k, trials int, heapSize int, seed uint64) (float64, error) {
	if fullness <= 0 || fullness > 0.5 {
		return 0, fmt.Errorf("exps: fullness %v outside (0, 1/2]", fullness)
	}
	const size = 64
	class := core.ClassFor(size)
	r := rng.NewSeeded(seed)
	masked := 0
	// Replica heaps are rebuilt per batch to amortize setup while
	// keeping layouts independent across trials.
	const batch = 64
	for done := 0; done < trials; {
		heaps := make([]*core.Heap, k)
		ptrs := make([][]heap.Ptr, k)
		for i := range heaps {
			h, err := core.New(core.Options{HeapSize: heapSize, Seed: r.Next64() | 1})
			if err != nil {
				return 0, err
			}
			total, _ := h.ClassSlots(class)
			want := int(fullness * float64(total))
			ps := make([]heap.Ptr, want)
			for j := range ps {
				p, err := h.Malloc(size)
				if err != nil {
					return 0, err
				}
				ps[j] = p
			}
			heaps[i] = h
			ptrs[i] = ps
		}
		for b := 0; b < batch && done < trials; b++ {
			// The overflowing object is the same logical object in
			// every replica; its physical neighbor differs per layout.
			victim := r.Intn(len(ptrs[0]))
			anyClean := false
			for i := range heaps {
				p := ptrs[i][victim]
				neighbor := p + size // one object's width past the end
				// The write is masked if the neighboring slot is not a
				// live object in this replica.
				if _, _, ok := heaps[i].ObjectBounds(neighbor); !ok {
					anyClean = true
					break
				}
			}
			if anyClean {
				masked++
			}
			done++
		}
		for _, h := range heaps {
			h.Close()
		}
	}
	return float64(masked) / float64(trials), nil
}

// EmpiricalDanglingMask measures, on a real DieHard heap, the
// probability that an object freed A allocations early still holds its
// contents when its real free would occur (Theorem 2, Figure 4(b)).
// The heap is sized so the class has q slots; compare with
// 1 - A/q for one replica.
func EmpiricalDanglingMask(size, allocs, trials, heapSize int, seed uint64) (float64, error) {
	r := rng.NewSeeded(seed)
	intact := 0
	for t := 0; t < trials; t++ {
		h, err := core.New(core.Options{HeapSize: heapSize, Seed: r.Next64() | 1})
		if err != nil {
			return 0, err
		}
		victim, err := h.Malloc(size)
		if err != nil {
			return 0, err
		}
		if err := h.Mem().Store64(victim, 0xfeedface); err != nil {
			return 0, err
		}
		if err := h.Free(victim); err != nil { // premature free
			return 0, err
		}
		ok := true
		for a := 0; a < allocs; a++ {
			p, err := h.Malloc(size)
			if err != nil {
				return 0, err
			}
			// Worst case per Theorem 2: the new object is written and
			// nothing is freed.
			if err := h.Mem().Store64(p, uint64(a)); err != nil {
				return 0, err
			}
		}
		v, err := h.Mem().Load64(victim)
		h.Close()
		if err != nil {
			return 0, err
		}
		if v != 0xfeedface {
			ok = false
		}
		if ok {
			intact++
		}
	}
	return float64(intact) / float64(trials), nil
}

// EmpiricalProbeCount measures the mean number of bitmap probes per
// allocation at the threshold fullness, validating §4.2's expected
// 1/(1-1/M) bound.
func EmpiricalProbeCount(m float64, heapSize int, seed uint64) (float64, error) {
	h, err := core.New(core.Options{HeapSize: heapSize, M: m, Seed: seed})
	if err != nil {
		return 0, err
	}
	defer h.Close()
	const size = 64
	class := core.ClassFor(size)
	_, maxInUse := h.ClassSlots(class)
	ptrs := make([]heap.Ptr, maxInUse)
	for i := range ptrs {
		p, err := h.Malloc(size)
		if err != nil {
			return 0, err
		}
		ptrs[i] = p
	}
	r := rng.NewSeeded(seed + 1)
	before := h.Stats().Probes
	const pairs = 20000
	for i := 0; i < pairs; i++ {
		j := r.Intn(len(ptrs))
		if err := h.Free(ptrs[j]); err != nil {
			return 0, err
		}
		p, err := h.Malloc(size)
		if err != nil {
			return 0, err
		}
		ptrs[j] = p
	}
	return float64(h.Stats().Probes-before) / pairs, nil
}
