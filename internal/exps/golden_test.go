package exps

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// Golden campaign fingerprints, recorded at PR 4 — before the lock-free
// malloc engine — with workers=1 on the per-class-mutex allocator. The
// lock-free CAS engine consumes exactly the same per-class draw stream
// when one goroutine allocates (DESIGN.md §10), so every campaign cell
// must still hash to these values; a mismatch means the concurrency
// refactor changed placement, and with it the randomized-placement
// guarantees the campaigns measure.

// goldenDetectHashes are the per-cell OutputHash values of the tiny
// detection table (tinyDetectParams, workers=1) in cell order
// (overflow, dangling, uninit at multiplier 2).
var goldenDetectHashes = map[DetectError]uint64{
	DetectOverflow: 0x2a79411f06e748cb,
	DetectDangling: 0xc529cc2338e92028,
	DetectUninit:   0xe88b9d83855ef1e5,
}

// goldenTierHashes pins the tiny table's deterministic-tier cells
// (workers=1, multiplier 2), recorded while RandomFill heaps still ran
// the per-class-mutex engine, before they moved to the lock-free one.
// The replicated hash covers trial outcomes only and equals the
// probabilistic uninit hash. It does not see the object fill: dropping
// the fill or changing its values leaves it unchanged, because the page
// filler alone already makes the replicas' uninitialized reads differ.
// goldenReplicaStreamHash is the campaign-level guard on the fill, and
// core's TestLockFreeMatchesLockedLayout pins a hash of the filled
// bytes themselves.
var goldenTierHashes = map[DetectPolicy]map[DetectError]uint64{
	PolicyGenTag:     {DetectDangling: 0x6531e2651fbad475},
	PolicyReplicated: {DetectUninit: 0xe88b9d83855ef1e5},
}

// goldenReplicaStreamHash is 64-bit FNV-1a over the three replicas'
// Load64 read streams (little-endian words, replica 0 first) of one
// injected replicated-tier trial of the tiny table (trial index 1,
// multiplier 2), recorded before unbatched mallocs moved onto the
// one-slot claim. The victim's first read returns its object fill, so
// dropping the fill, or drawing it from anywhere else, moves the hash.
const goldenReplicaStreamHash = 0x190689a7e5a6a767

// goldenErrorTableHash is 64-bit FNV-1a over fmt's rendering of the
// Table 1 cell map (map printing is key-sorted, so the rendering is
// deterministic).
const goldenErrorTableHash = 0x4f362baa046c63a5

func TestDetectionTableMatchesPR4Recording(t *testing.T) {
	table, err := RunDetectionTable(tinyDetectParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The PR 4 recording predates the policy axis: only the
	// probabilistic cells are pinned, and every one of them must still
	// be present and hash-identical (the deterministic tiers append
	// after them, sharing no trial indices).
	prob := 0
	for _, c := range table.Cells {
		if c.Policy == PolicyProbabilistic {
			prob++
		}
	}
	if prob != len(goldenDetectHashes) {
		t.Fatalf("table has %d probabilistic cells, recording has %d", prob, len(goldenDetectHashes))
	}
	for _, c := range table.Cells {
		if c.Policy != PolicyProbabilistic {
			continue
		}
		want, ok := goldenDetectHashes[c.Error]
		if !ok {
			t.Errorf("cell %s x%v not in the PR 4 recording", c.Error, c.Multiplier)
			continue
		}
		if c.OutputHash != want {
			t.Errorf("cell %s x%v OutputHash = %#x, PR 4 recorded %#x — the engine refactor changed campaign output",
				c.Error, c.Multiplier, c.OutputHash, want)
		}
	}
}

func TestDetectionTableTiersMatchRecording(t *testing.T) {
	table, err := RunDetectionTable(tinyDetectParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pinned := 0
	for _, c := range table.Cells {
		want, ok := goldenTierHashes[c.Policy][c.Error]
		if !ok {
			continue
		}
		pinned++
		if c.OutputHash != want {
			t.Errorf("cell %s/%s x%v OutputHash = %#x, recorded %#x",
				c.Policy, c.Error, c.Multiplier, c.OutputHash, want)
		}
	}
	if pinned != 2 {
		t.Fatalf("found %d of the 2 recorded deterministic-tier cells", pinned)
	}
}

func TestReplicatedTrialReadStreamsMatchRecording(t *testing.T) {
	p := tinyDetectParams()
	p.defaults()
	trialSeed := DeriveSeed(p.Seed, 1)
	victim := int(DeriveSeed(trialSeed, 0xBEEF) % uint64(p.Allocs-p.Live))
	streams, err := replicaReadStreams(p, 2, trialSeed, victim)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var word [8]byte
	for _, s := range streams {
		for _, v := range s {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
	}
	if got := h.Sum64(); got != goldenReplicaStreamHash {
		t.Errorf("replica read-stream hash = %#x, recorded %#x — the replicated heaps' object fill or placement changed",
			got, goldenReplicaStreamHash)
	}
}

func TestErrorTableMatchesPR4Recording(t *testing.T) {
	skipIfShort(t)
	table, err := RunErrorTable(1)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", table.Cell)
	if got := h.Sum64(); got != goldenErrorTableHash {
		t.Errorf("error table hash = %#x, PR 4 recorded %#x — a Table 1 cell changed:\n%+v",
			got, goldenErrorTableHash, table.Cell)
	}
}
