package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestObsTraceWraparound(t *testing.T) {
	// A full ring overwrites its oldest events: after 3x the capacity,
	// the snapshot holds exactly the capacity's worth of events and
	// they are the most recent ones, still stamp-sorted.
	rec := NewRecorder(64)
	ring := rec.Ring(0)
	const n = 3 * 64
	for i := 0; i < n; i++ {
		ring.Emit(EvMalloc, uint64(i))
	}
	evs := rec.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("snapshot holds %d events after wrap, want 64", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(n - 64 + i); ev.Arg != want {
			t.Fatalf("event %d arg %d, want %d (oldest must be overwritten)", i, ev.Arg, want)
		}
		if i > 0 && evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("stamps not strictly increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
		if ev.Kind != "malloc" || ev.Worker != 0 {
			t.Fatalf("event decoded wrong: %+v", ev)
		}
	}
	if ring.Len() != 64 {
		t.Fatalf("ring len %d, want 64", ring.Len())
	}
}

func TestObsTraceMergeOrdering(t *testing.T) {
	// Interleaved emits from several workers merge into one timeline
	// that is globally stamp-sorted and monotone per worker, with each
	// worker's own event order preserved as a subsequence.
	rec := NewRecorder(256)
	rings := []*Ring{rec.Ring(1), rec.Ring(2), rec.Ring(7)}
	kinds := []Kind{EvMalloc, EvFree, EvSteal}
	for i := 0; i < 100; i++ {
		for w, r := range rings {
			r.Emit(kinds[w], uint64(i))
		}
	}
	evs := rec.Snapshot()
	if len(evs) != 300 {
		t.Fatalf("merged %d events, want 300", len(evs))
	}
	lastSeq := uint64(0)
	lastArg := map[int]uint64{}
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("global order violated: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if prev, ok := lastArg[ev.Worker]; ok && ev.Arg != prev+1 {
			t.Fatalf("worker %d events out of order: arg %d after %d", ev.Worker, ev.Arg, prev)
		}
		lastArg[ev.Worker] = ev.Arg
	}
	for _, w := range []int{1, 2, 7} {
		if lastArg[w] != 99 {
			t.Fatalf("worker %d timeline truncated at %d", w, lastArg[w])
		}
	}
	// Arg packing: 48 bits survive, beyond truncates.
	r := rec.Ring(3)
	r.Emit(EvBarrier, 1<<48-1)
	r.Emit(EvBarrier, 1<<48+5)
	tail := rec.Tail(2)
	if tail[0].Arg != 1<<48-1 || tail[1].Arg != 5 {
		t.Fatalf("arg packing wrong: %+v", tail)
	}
}

func TestObsTraceRaceBattery(t *testing.T) {
	// 8 goroutines hammer their own rings (plus one shared ring) while
	// a reader snapshots continuously; under -race this exercises the
	// seqlock protocol. The final quiescent snapshot must be complete
	// per the wraparound rule and stamp-sorted.
	const workers = 8
	const perWorker = 4096
	rec := NewRecorder(512)
	shared := rec.Ring(99)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				evs := rec.Snapshot()
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq <= evs[i-1].Seq {
						t.Errorf("live snapshot out of order at %d", i)
						return
					}
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ring := rec.Ring(w)
			for i := 0; i < perWorker; i++ {
				ring.Emit(EvMalloc, uint64(i))
				if i%64 == 0 {
					shared.Emit(EvDrain, uint64(w))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	evs := rec.Snapshot()
	// Quiescent: every ring is full (perWorker > ring size), so the
	// timeline holds exactly (workers+1) full rings.
	if want := (workers + 1) * 512; len(evs) != want {
		t.Fatalf("final snapshot %d events, want %d", len(evs), want)
	}
	perRing := map[int]int{}
	for i, ev := range evs {
		if i > 0 && evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("final snapshot out of order at %d", i)
		}
		perRing[ev.Worker]++
	}
	for w := 0; w < workers; w++ {
		if perRing[w] != 512 {
			t.Fatalf("worker %d holds %d events, want full ring 512", w, perRing[w])
		}
	}
}

func TestObsTraceDisabledPath(t *testing.T) {
	// The disabled recorder is a nil pointer all the way down: rings
	// are nil, Emit is one branch, Snapshot is empty — and none of it
	// allocates.
	var rec *Recorder
	ring := rec.Ring(0)
	if ring != nil {
		t.Fatal("nil recorder handed out a ring")
	}
	allocs := testing.AllocsPerRun(100, func() {
		ring.Emit(EvMalloc, 42)
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %v per op", allocs)
	}
	if evs := rec.Snapshot(); evs != nil {
		t.Fatalf("nil recorder snapshot: %v", evs)
	}
	if rec.Tail(5) != nil {
		t.Fatal("nil recorder tail not empty")
	}
	if ring.Len() != 0 {
		t.Fatal("nil ring has length")
	}
	// Enabled Emit does not allocate either (fixed slots, no boxing).
	live := NewRecorder(64).Ring(1)
	allocs = testing.AllocsPerRun(100, func() {
		live.Emit(EvFree, 7)
	})
	if allocs != 0 {
		t.Fatalf("enabled Emit allocates %v per op", allocs)
	}
}

func TestObsWriteDump(t *testing.T) {
	// The -obs document: the metric tree plus the last 256 events, and
	// an empty timeline renders as [], not null.
	reg := NewRegistry()
	reg.Counter("core.mallocs").Add(3)
	rec := NewRecorder(512)
	for i := 0; i < 300; i++ {
		rec.Ring(0).Emit(EvMalloc, uint64(i))
	}
	for _, tc := range []struct {
		rec  *Recorder
		tail int
	}{{rec, 256}, {nil, 0}} {
		var buf bytes.Buffer
		if err := WriteDump(&buf, reg, tc.rec); err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc) != 2 {
			t.Fatalf("dump %q: %v", buf.String(), err)
		}
		var metrics []MetricPoint
		var trace []Event
		if err := json.Unmarshal(doc["metrics"], &metrics); err != nil || len(metrics) != 1 {
			t.Fatalf("metrics %s: %v", doc["metrics"], err)
		}
		if err := json.Unmarshal(doc["trace"], &trace); err != nil || trace == nil || len(trace) != tc.tail {
			t.Fatalf("trace of %d events, want %d (%s): %v", len(trace), tc.tail, doc["trace"], err)
		}
		if tc.tail > 0 && trace[tc.tail-1].Arg != 299 {
			t.Fatalf("tail ends at arg %d, want 299", trace[tc.tail-1].Arg)
		}
	}
}
