package core

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/rng"
)

// TestObsTracePlacementUnchanged pins the flight recorder's zero-cost
// contract on the allocation protocol: tracing draws nothing from the
// placement RNG, so a traced heap and an untraced heap with the same
// seed produce byte-identical layouts, and it allocates nothing.
func TestObsTracePlacementUnchanged(t *testing.T) {
	rec := obs.NewRecorder(1 << 12)
	traced := testHeap(t, Options{Seed: 0xD1FF, Trace: rec.Ring(7)})
	plain := testHeap(t, Options{Seed: 0xD1FF})
	buildWorkload(t, traced)
	buildWorkload(t, plain)
	sa, err := traced.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffSnapshots(sa, sb); len(d) != 0 {
		t.Fatalf("tracing perturbed placement: %v", d)
	}

	evs := rec.Snapshot()
	if len(evs) == 0 {
		t.Fatal("recorder captured nothing")
	}
	kinds := map[string]int{}
	for i, e := range evs {
		if e.Worker != 7 {
			t.Fatalf("event %d on worker %d, ring is 7", i, e.Worker)
		}
		if i > 0 && evs[i-1].Seq >= e.Seq {
			t.Fatalf("stamps not strictly increasing at %d", i)
		}
		kinds[e.Kind]++
	}
	st := traced.StatsSnapshot()
	if uint64(kinds["malloc"]) != st.Mallocs {
		t.Errorf("traced %d mallocs, stats say %d", kinds["malloc"], st.Mallocs)
	}
	if uint64(kinds["free"]) != st.Frees {
		t.Errorf("traced %d frees, stats say %d", kinds["free"], st.Frees)
	}

	// Nor does tracing, on or off, put anything on the Go heap: the
	// 64 B threshold pair of BenchmarkGate allocates nothing, unbatched
	// or through a magazine, on a sequential or a concurrent heap.
	for _, fr := range []front{viaHeap, viaMagazine} {
		for _, ring := range []*obs.Ring{nil, rec.Ring(0)} {
			for _, concurrent := range []bool{false, true} {
				pairs, err := thresholdPairs(Options{HeapSize: 48 << 20, Seed: 1, Concurrent: concurrent, Trace: ring}, fr)
				if err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(1000, func() {
					if err := pairs(1); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("magazine=%v traced=%v concurrent=%v: %v allocs per pair, want 0",
						fr == viaMagazine, ring != nil, concurrent, allocs)
				}
			}
		}
	}
}

// TestObsTraceMagazineRemoteEvents drives the batched front ends with
// rings attached and asserts each protocol layer shows up in the merged
// timeline under its own event kind.
func TestObsTraceMagazineRemoteEvents(t *testing.T) {
	rec := obs.NewRecorder(1 << 12)
	sh, err := NewSharded(2, Options{HeapSize: 2 << 20, Seed: 41, RemoteRing: true})
	if err != nil {
		t.Fatal(err)
	}
	sh.AttachRecorder(rec, 100)
	mag, err := sh.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	mag.SetTrace(rec.Ring(0))

	var ptrs []heap.Ptr
	for i := 0; i < 256; i++ {
		p, err := mag.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if i%2 == 0 {
			if err := sh.RemoteFree(p); err != nil {
				t.Fatal(err)
			}
		} else if err := mag.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	mag.Close()
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for _, e := range rec.Snapshot() {
		kinds[e.Kind]++
	}
	for _, k := range []string{"malloc", "free", "refill", "flush", "remote_free", "drain", "barrier"} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in the timeline (saw %v)", k, kinds)
		}
	}
	if kinds["remote_free"] != len(ptrs)/2 {
		t.Errorf("traced %d remote frees, enqueued %d", kinds["remote_free"], len(ptrs)/2)
	}
}

// TestObsTraceRaceBattery is the acceptance battery: eight workers
// hammer a traced sharded heap through magazines and the remote-free
// rings while a reader goroutine continuously merges the rings, then
// the final Snapshot must still be stamp-ordered and CheckInvariants
// must hold.
func TestObsTraceRaceBattery(t *testing.T) {
	const (
		workers = 8
		rounds  = 60
		batch   = 24
	)
	rec := obs.NewRecorder(512)
	sh, err := NewSharded(4, Options{HeapSize: 4 << 20, Seed: 43, RemoteRing: true})
	if err != nil {
		t.Fatal(err)
	}
	sh.AttachRecorder(rec, 100)

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := rec.Snapshot()
			for i := 1; i < len(evs); i++ {
				if evs[i-1].Seq >= evs[i].Seq {
					t.Errorf("live snapshot out of order at %d", i)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mag, err := sh.NewMagazine()
			if err != nil {
				errs[w] = err
				return
			}
			defer mag.Close()
			mag.SetTrace(rec.Ring(w))
			r := rng.NewSeeded(uint64(2000 + w))
			for round := 0; round < rounds; round++ {
				ptrs := make([]heap.Ptr, batch)
				for i := range ptrs {
					p, err := mag.Malloc(16 << (r.Intn(3) * 2))
					if err != nil {
						errs[w] = err
						return
					}
					ptrs[i] = p
				}
				for _, p := range ptrs {
					if r.Intn(2) == 0 {
						err = sh.RemoteFree(p)
					} else {
						err = mag.Free(p)
					}
					if err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	evs := rec.Snapshot()
	if len(evs) == 0 {
		t.Fatal("battery left no trace")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Seq >= evs[i].Seq {
			t.Fatalf("final snapshot out of order at %d", i)
		}
	}
}

// TestObsStatsSnapshotRace scrapes StatsSnapshot (and the registry
// gauges built on it, core's and vmem's) continuously while workers
// allocate — a racy *h.Stats() copy would trip the race detector here.
// Every 8th malloc of worker 0 is a large object, so the scrape of the
// vmem.pages_* gauges also races the Map and Unmap that update the
// space's mapping counters.
func TestObsStatsSnapshotRace(t *testing.T) {
	h := testHeap(t, Options{HeapSize: 1 << 20, Seed: 47, Concurrent: true})
	reg := obs.NewRegistry()
	h.PublishMetrics(reg)
	h.Mem().PublishMetrics(reg)

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := h.StatsSnapshot()
			if st.Frees > st.Mallocs {
				t.Errorf("snapshot tore: frees %d > mallocs %d", st.Frees, st.Mallocs)
				return
			}
			reg.Snapshot()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				size := 32
				if w == 0 && i%8 == 7 {
					size = MaxObjectSize + 1
				}
				p, err := h.Malloc(size)
				if err != nil {
					t.Error(err)
					return
				}
				if err := h.Free(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	if v, ok := reg.Get("core.mallocs"); !ok || v != 1600 {
		t.Fatalf("core.mallocs gauge = %v (ok=%v), want 1600", v, ok)
	}
}

// coreGaugeFields maps every core.* gauge to the Stats field it reads.
// It is the test's own copy of the names, so a gauge bound to the wrong
// field, or a gauge added without an entry here, fails.
var coreGaugeFields = map[string]string{
	"core.mallocs":             "Mallocs",
	"core.frees":               "Frees",
	"core.failed_mallocs":      "FailedMallocs",
	"core.ignored_frees":       "IgnoredFrees",
	"core.live_objects":        "LiveObjects",
	"core.live_bytes":          "LiveBytes",
	"core.peak_live_bytes":     "PeakLiveBytes",
	"core.probes":              "Probes",
	"core.cas_retries":         "CASRetries",
	"core.remote_frees":        "RemoteFrees",
	"core.remote_drains":       "RemoteDrains",
	"core.quarantined":         "Quarantined",
	"core.quarantine_released": "QuarantineOut",
	"core.stale_frees":         "StaleFrees",
	"core.retired_slots":       "Retired",
}

// checkCoreGauges compares every core.* gauge in reg with its field of
// st; core.shard_live_objects{shard=i} reads shard i's LiveObjects.
func checkCoreGauges(t *testing.T, who string, reg *obs.Registry, st heap.Stats, shards []heap.Stats) {
	t.Helper()
	seen := 0
	for _, m := range reg.Snapshot().Metrics {
		if !strings.HasPrefix(m.Name, "core.") {
			continue
		}
		want := uint64(0)
		if m.Name == "core.shard_live_objects" {
			i, err := strconv.Atoi(m.Labels["shard"])
			if err != nil || i >= len(shards) {
				t.Fatalf("%s: %s with shard label %q", who, m.Name, m.Labels["shard"])
			}
			want = shards[i].LiveObjects
		} else {
			field, ok := coreGaugeFields[m.Name]
			if !ok {
				t.Fatalf("%s: gauge %s maps to no Stats field", who, m.Name)
			}
			want = reflect.ValueOf(st).FieldByName(field).Uint()
		}
		if *m.Value != float64(want) {
			t.Errorf("%s: %s%v = %v, Stats say %d", who, m.Name, m.Labels, *m.Value, want)
		}
		seen++
	}
	if seen < len(coreGaugeFields)-1 {
		t.Fatalf("%s: only %d core gauges published", who, seen)
	}
}

// TestShardedCountersSumTheShards runs a mixed workload on a 2-shard
// tagged heap with remote rings — small and large objects, magazine
// batches, ring frees, a double free, quarantine and a stale FreeFat —
// then checks that the sharded StatsSnapshot is the field-wise sum of
// the shards' snapshots, and that every core.* gauge reads its Stats
// field, on each shard's registry and on the sharded one.
func TestShardedCountersSumTheShards(t *testing.T) {
	sh, err := NewSharded(2, Options{HeapSize: 4 << 20, Seed: 0x5AD, GenTags: true, RemoteRing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	mag, err := sh.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	var live []heap.FatPtr
	for i := 0; i < 96; i++ {
		size := 16 << (i % 5)
		if i%16 == 15 {
			size = MaxObjectSize + 1
		}
		var fp heap.FatPtr
		if i%3 == 0 {
			fp, err = mag.MallocFat(size)
		} else {
			fp, err = sh.MallocFat(size)
		}
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, fp)
	}
	noErr := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	accepted := func(ok bool, err error) {
		t.Helper()
		noErr(err)
		if !ok {
			t.Fatal("free of a live object rejected")
		}
	}
	accepted(sh.FreeFat(live[0]))
	if ok, _ := sh.FreeFat(live[0]); ok {
		t.Fatal("stale FreeFat accepted")
	}
	noErr(sh.Free(live[1].Addr))
	noErr(sh.Free(live[1].Addr)) // double free: ignored
	for _, fp := range live[2:6] {
		noErr(sh.Quarantine(fp.Addr))
	}
	sh.Shard(0).FlushQuarantine()
	for i, fp := range live[6:48] {
		switch i % 3 {
		case 0:
			accepted(mag.FreeFat(fp))
		case 1:
			accepted(sh.RemoteFreeFat(fp))
		default:
			accepted(sh.FreeFat(fp))
		}
	}
	mag.Close()
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	var sum heap.Stats
	shards := make([]heap.Stats, sh.Shards())
	for i := range shards {
		shards[i] = sh.Shard(i).StatsSnapshot()
		// Quiescent and written by this goroutine only, so the plain
		// copy is exact: the atomic snapshot must read every field.
		if plain := *sh.Shard(i).Stats(); shards[i] != plain {
			t.Fatalf("shard %d: snapshot %+v\nplain copy %+v", i, shards[i], plain)
		}
		acc, st := reflect.ValueOf(&sum).Elem(), reflect.ValueOf(shards[i])
		for f := 0; f < acc.NumField(); f++ {
			acc.Field(f).SetUint(acc.Field(f).Uint() + st.Field(f).Uint())
		}
	}
	got := sh.StatsSnapshot()
	if got != sum {
		t.Fatalf("sharded snapshot %+v\nsum of shards    %+v", got, sum)
	}
	if got.StaleFrees == 0 || got.IgnoredFrees == 0 || got.QuarantineOut == 0 || got.RemoteFrees == 0 || got.LiveObjects == 0 {
		t.Fatalf("workload missed a counter: %+v", got)
	}

	for i := range shards {
		reg := obs.NewRegistry()
		sh.Shard(i).PublishMetrics(reg)
		checkCoreGauges(t, fmt.Sprintf("shard %d", i), reg, shards[i], nil)
	}
	reg := obs.NewRegistry()
	sh.PublishMetrics(reg)
	checkCoreGauges(t, "sharded", reg, got, shards)
}
