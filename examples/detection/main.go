// Detection walkthrough: the canary engine turned on through the
// public facade.
//
// DieHard's randomized heap normally *tolerates* memory errors; with
// DetectCanaries it also *reports* them. Free space carries a seeded
// canary pattern, audited when objects are freed, when slots are
// reused, and at heap-check barriers; damaged canaries become Evidence
// records (page, offset, damaged span, neighbor objects, culprit
// allocation site). Running the same buggy program under several
// independently seeded layouts and intersecting the evidence localizes
// the culprit — Exterminator's trick on the DieHard substrate.
//
//	go run ./examples/detection
package main

import (
	"fmt"
	"log"

	"diehard"
)

func main() {
	h, err := diehard.NewHeap(diehard.HeapOptions{
		HeapSize:       64 << 20,
		Seed:           42,
		DetectCanaries: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	mem := h.Memory() // the checked view: loads audit for uninit reads
	fmt.Println("== detection heap ready ==")

	// 1. A buffer overflow: ask for 56 bytes, write 60. The 4 stray
	// bytes damage the slot's canary slack and are caught when the
	// object is freed.
	p, err := h.Malloc(56)
	if err != nil {
		log.Fatal(err)
	}
	if err := mem.Memset(p, 'A', 60); err != nil {
		log.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		log.Fatal(err)
	}

	// 2. A dangling write: free an object, then store through the stale
	// pointer. The freed slot was re-armed with canary, so a heap-check
	// barrier sees the damage.
	q, err := h.Malloc(64)
	if err != nil {
		log.Fatal(err)
	}
	if err := mem.Memset(q, 'B', 64); err != nil {
		log.Fatal(err)
	}
	if err := h.Free(q); err != nil {
		log.Fatal(err)
	}
	if err := mem.Store64(q+8, 0xDEADBEEF); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heap check found %d new violation(s)\n", h.HeapCheck())

	// 3. An uninitialized read: allocate and read without writing. The
	// object still holds canary, and the checked load reports it.
	r, err := h.Malloc(64)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mem.Load64(r); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== evidence ==")
	for _, ev := range h.DetectionReport().Evidence {
		fmt.Printf("  %-18s at %-9s page %-5d offset %-4d span %-3d object %#x (site %d)\n",
			ev.Kind, ev.Audit, ev.Page, ev.Offset, ev.Span, ev.Object, ev.AllocSite)
	}

	// 4. Triage: run the same buggy program under 16 independently
	// seeded layouts. The overflow's culprit allocation site recurs in
	// every layout; coincidental neighbors re-randomize away.
	fmt.Println("\n== triage across 16 seeded layouts ==")
	var reports []*diehard.DetectionReport
	for seed := uint64(1); seed <= 16; seed++ {
		hh, err := diehard.NewHeap(diehard.HeapOptions{
			HeapSize: 64 << 20, Seed: seed, DetectCanaries: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		// The "program": three allocations, the second one overflowing.
		for i := 0; i < 3; i++ {
			obj, err := hh.Malloc(56)
			if err != nil {
				log.Fatal(err)
			}
			n := 56
			if i == 1 {
				n = 62 // the bug: 6 bytes past the request
			}
			if err := hh.Memory().Memset(obj, byte('a'+i), n); err != nil {
				log.Fatal(err)
			}
			if err := hh.Free(obj); err != nil {
				log.Fatal(err)
			}
		}
		reports = append(reports, hh.DetectionReport())
		hh.Close()
	}
	tri := diehard.Triage(diehard.KindOverflow, reports)
	fmt.Printf("detected in %d/%d layouts; culprit allocation site %d "+
		"(confidence %.0f%%), overflow length >= %d bytes\n",
		tri.Detected, tri.Trials, tri.Culprit, 100*tri.Confidence, tri.OverflowLen)

	// 5. The same evidence flows out of the replicated runtime: replicas
	// run detection heaps, and when the voter kills a divergent replica
	// its evidence feeds the triage report (see internal/replicate).
	fmt.Println("\ndone — see `go run ./cmd/detect` for the full graded campaign")
}
