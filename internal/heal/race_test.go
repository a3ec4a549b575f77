package heal

import (
	"sync"
	"testing"

	"diehard/internal/core"
	"diehard/internal/detect"
	"diehard/internal/heap"
	"diehard/internal/rng"
)

// TestHealRaceBattery is the 8-goroutine concurrency battery of the
// healing machinery (runs under -race in CI): workers churn two shared
// lock-free heaps, reading a live Mitigations table at every malloc
// (the pad they add to the request) and every free (Quarantine or
// Free), while a supervisor goroutine installs pads and quarantines
// mid-flight and every worker simultaneously streams
// evidence windows into one shared Accumulator (plus a private one that
// is Merged at the end). The run must end with the quarantine flushed,
// CheckInvariants clean — which enforces bitmap popcount == inUse, with
// the quarantined slots' bits and occupancy units accounted — and the
// accumulated verdict naming the planted culprit.
func TestHealRaceBattery(t *testing.T) {
	const workers = 8
	const rounds = 400
	const culprit = 7

	mit := NewMitigations()
	shared := &detect.Accumulator{}

	// Site identity in this battery is the requested size, which is
	// also the slot size serving it. Every worker reads the table
	// concurrently, so the reads race the supervisor's copy-on-write
	// publishes — the point of the test.
	h, err := core.New(core.Options{HeapSize: 48 << 20, Seed: 0xBA77, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	hq, err := core.New(core.Options{HeapSize: 48 << 20, Seed: 0xBA78, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	type object struct {
		p    heap.Ptr
		size int
	}
	freeQ := func(o object) error {
		if mit.Quarantined(o.size) {
			return hq.Quarantine(o.p)
		}
		return hq.Free(o.p)
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewSeeded(uint64(id)*0x9E3779B9 + 3)
			priv := &detect.Accumulator{}
			var live []heap.Ptr
			var liveQ []object
			for i := 0; i < rounds; i++ {
				size := 8 << r.Intn(3) // classes 0..2, shared across workers
				p, err := h.Malloc(size + mit.Pad(size))
				if err != nil {
					errs[id] = err
					return
				}
				live = append(live, p)
				q, err := hq.Malloc(size)
				if err != nil {
					errs[id] = err
					return
				}
				liveQ = append(liveQ, object{q, size})
				if len(live) > 48 {
					j := r.Intn(len(live))
					if err := h.Free(live[j]); err != nil {
						errs[id] = err
						return
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					j = r.Intn(len(liveQ))
					if err := freeQ(liveQ[j]); err != nil {
						errs[id] = err
						return
					}
					liveQ[j] = liveQ[len(liveQ)-1]
					liveQ = liveQ[:len(liveQ)-1]
				}
				// One evidence window per round: the planted culprit plus
				// a per-worker noise site, half into the shared
				// accumulator directly, half via the private one.
				win := []detect.Evidence{
					{Kind: detect.KindOverflow, AllocSite: culprit, Length: 24},
					{Kind: detect.KindOverflow, AllocSite: 100 + id, Length: 8},
				}
				if i%2 == 0 {
					shared.Observe(win, 0)
				} else {
					priv.Observe(win, 0)
				}
				// Reads of the verdict race the writes by design.
				_ = shared.Verdict(detect.KindOverflow, 3)
			}
			for _, p := range live {
				if err := h.Free(p); err != nil {
					errs[id] = err
					return
				}
			}
			for _, o := range liveQ {
				if err := freeQ(o); err != nil {
					errs[id] = err
					return
				}
			}
			shared.Merge(priv)
		}(w)
	}
	// The supervisor: applies countermeasures while the workers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, size := range []int{8, 16, 32} {
			mit.SetPad(size, size) // doubles the request: next class up
			mit.SetQuarantine(size << 1)
		}
	}()
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}

	// On a 1-CPU host the scheduler may run every worker to completion
	// before the supervisor goroutine gets a slice, so whether any free
	// was held mid-battery is timing-dependent. This coda is not: the
	// supervisor has joined, quarantines are installed, and these frees
	// must be held.
	for i := 0; i < 8; i++ {
		p, err := hq.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if err := freeQ(object{p, 16}); err != nil {
			t.Fatal(err)
		}
	}
	if flushed := hq.FlushQuarantine(); flushed == 0 {
		t.Error("supervisor quarantined live classes but no free was ever held")
	}
	for _, hp := range []*core.Heap{h, hq} {
		if err := hp.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		st := hp.Stats()
		if st.LiveObjects != 0 {
			t.Errorf("LiveObjects = %d after teardown", st.LiveObjects)
		}
		if st.Quarantined != st.QuarantineOut {
			t.Errorf("quarantine accounting: %d held, %d released (every free was unique)",
				st.Quarantined, st.QuarantineOut)
		}
	}

	v := shared.Verdict(detect.KindOverflow, 3)
	if v == nil || v.Culprit != culprit {
		t.Fatalf("concurrent accumulation lost the culprit: %+v", v)
	}
	if want := workers * rounds; v.Votes[culprit] != want {
		t.Errorf("culprit votes = %d, want %d (every window names it)", v.Votes[culprit], want)
	}
	if v.OverflowLen != 24 {
		t.Errorf("merged OverflowLen = %d, want 24", v.OverflowLen)
	}
}
