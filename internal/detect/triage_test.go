package detect

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"diehard/internal/core"
	"diehard/internal/heap"
	"diehard/internal/rng"
)

// synthetic builds a report with overflow candidates at the given sites.
func synthetic(seed uint64, sites ...int) *Report {
	r := &Report{Seed: seed}
	for _, s := range sites {
		r.Evidence = append(r.Evidence, Evidence{
			Kind: KindOverflow, AllocSite: s, Length: 4 + s%3,
		})
	}
	return r
}

func TestTriageIntersectsCandidates(t *testing.T) {
	// Site 7 recurs in every layout; the coincidental neighbors differ.
	reports := []*Report{
		synthetic(1, 7, 12),
		synthetic(2, 7, 31),
		synthetic(3, 7),
		synthetic(4, 7, 5),
	}
	res := Triage(KindOverflow, reports)
	if res.Trials != 4 || res.Detected != 4 {
		t.Fatalf("trials/detected = %d/%d, want 4/4", res.Trials, res.Detected)
	}
	if res.Culprit != 7 {
		t.Fatalf("culprit = %d, want 7 (votes %v)", res.Culprit, res.Votes)
	}
	if res.Confidence != 1 {
		t.Errorf("confidence = %v, want 1", res.Confidence)
	}
}

func TestTriageUnresolvedWithoutMajority(t *testing.T) {
	reports := []*Report{
		synthetic(1, 3),
		synthetic(2, 4),
		synthetic(3, 5),
		synthetic(4, 6),
	}
	res := Triage(KindOverflow, reports)
	if res.Culprit != -1 {
		t.Fatalf("culprit = %d, want unresolved (-1)", res.Culprit)
	}
	// Undetected layouts do not dilute the vote.
	reports = append(reports, &Report{Seed: 9}, &Report{Seed: 10})
	res = Triage(KindOverflow, reports)
	if res.Detected != 4 {
		t.Fatalf("detected = %d, want 4 (empty reports excluded)", res.Detected)
	}
}

func TestTriageTieBreaksToSmallestSite(t *testing.T) {
	reports := []*Report{
		synthetic(1, 3, 9),
		synthetic(2, 3, 9),
		synthetic(3, 3, 9),
	}
	res := Triage(KindOverflow, reports)
	if res.Culprit != 3 {
		t.Fatalf("culprit = %d, want deterministic tie-break to 3", res.Culprit)
	}
}

// TestTriageMatchesRecording pins Triage on 500 seeded random report
// sets: 0-8 reports of 0-6 records each, three kinds, candidate sites
// -1..11 (-1: no candidate) and lengths 0..63, empty reports included.
// Each kind's Trials, Detected, sorted votes, culprit, confidence bits
// and OverflowLen feed one FNV-1a hash, recorded when Triage ran its
// own vote loop; breaking ties to the largest site fails it.
func TestTriageMatchesRecording(t *testing.T) {
	kinds := []Kind{KindOverflow, KindDangling, KindStaleFree}
	r := rng.NewSeeded(0x7419)
	sum := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		sum.Write(b[:])
	}
	resolved := 0
	for set := 0; set < 500; set++ {
		reports := make([]*Report, r.Intn(9))
		for i := range reports {
			rep := &Report{Seed: uint64(i)}
			for n := r.Intn(7); n > 0; n-- {
				rep.Evidence = append(rep.Evidence, Evidence{
					Kind:      kinds[r.Intn(len(kinds))],
					AllocSite: r.Intn(13) - 1,
					Length:    r.Intn(64),
				})
			}
			reports[i] = rep
		}
		for _, k := range kinds {
			res := Triage(k, reports)
			put(uint64(res.Trials))
			put(uint64(res.Detected))
			sites := make([]int, 0, len(res.Votes))
			for s := range res.Votes {
				sites = append(sites, s)
			}
			sort.Ints(sites)
			for _, s := range sites {
				put(uint64(s))
				put(uint64(res.Votes[s]))
			}
			put(uint64(int64(res.Culprit)))
			put(math.Float64bits(res.Confidence))
			put(uint64(res.OverflowLen))
			if res.Culprit >= 0 {
				resolved++
			}
		}
	}
	if got, want := sum.Sum64(), uint64(0xbd651a347957cde1); got != want || resolved == 0 {
		t.Fatalf("triage hash %#x (%d resolved), recorded %#x", got, resolved, want)
	}
}

// TestTriageLocalizesEscapedOverflow is the end-to-end intersection
// story on real heaps: the same program commits the same escaped
// overflow under N independently seeded layouts, and the intersection
// pins the culprit even though each layout's damaged neighbor differs.
func TestTriageLocalizesEscapedOverflow(t *testing.T) {
	const layouts = 8
	const culpritIdx = 10
	var reports []*Report
	for l := 0; l < layouts; l++ {
		h, err := New(core.Options{HeapSize: 12 << 20, Seed: uint64(100 + l)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var ptrs []heap.Ptr
		for i := 0; i < 30; i++ {
			p, err := h.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Mem().Memset(p, byte(0x41+i%8), 64); err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		// The culprit writes 24 bytes past its slot into whatever the
		// layout placed there.
		if err := h.Mem().Memset(ptrs[culpritIdx]+64, 0x77, 24); err != nil {
			t.Fatal(err)
		}
		h.Detector().HeapCheckFull()
		reports = append(reports, h.Detector().Report())
	}
	res := Triage(KindOverflow, reports)
	if res.Detected < layouts/2 {
		t.Fatalf("only %d/%d layouts detected the escaped overflow", res.Detected, layouts)
	}
	if res.Culprit != culpritIdx {
		t.Fatalf("culprit = %d (votes %v), want %d", res.Culprit, res.Votes, culpritIdx)
	}
}
