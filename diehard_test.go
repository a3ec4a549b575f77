package diehard

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPublicHeapLifecycle(t *testing.T) {
	h, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Mem().Store64(p, 42); err != nil {
		t.Fatal(err)
	}
	v, err := h.Mem().Load64(p)
	if err != nil || v != 42 {
		t.Fatalf("round trip %d %v", v, err)
	}
	if size, ok := h.SizeOf(p); !ok || size != 64 {
		t.Fatalf("SizeOf %d %v", size, ok)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil { // double free: ignored
		t.Fatal(err)
	}
	st := h.Stats()
	if st.IgnoredFrees != 1 {
		t.Fatalf("IgnoredFrees = %d", st.IgnoredFrees)
	}
}

func TestPublicMagazine(t *testing.T) {
	h, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	live := make([]Ptr, 0, 100)
	for i := 0; i < 100; i++ {
		p, err := m.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Mem().Store64(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	for i, p := range live {
		if v, err := h.Mem().Load64(p); err != nil || v != uint64(i) {
			t.Fatalf("object %d: round trip %d %v", i, v, err)
		}
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Free(live[0]); err != nil { // double free through the magazine
		t.Fatal(err)
	}
	m.Close()
	st := h.Stats()
	if st.Mallocs != 100 || st.Frees != 100 || st.LiveObjects != 0 {
		t.Fatalf("drained stats: Mallocs=%d Frees=%d Live=%d, want 100/100/0",
			st.Mallocs, st.Frees, st.LiveObjects)
	}
	if st.IgnoredFrees != 1 {
		t.Fatalf("IgnoredFrees = %d, want 1", st.IgnoredFrees)
	}
	// Magazines refuse detection heaps: batching cannot preserve
	// per-operation canary audit points.
	dh, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 1, DetectCanaries: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dh.NewMagazine(); err == nil {
		t.Fatal("NewMagazine on a DetectCanaries heap succeeded; want error")
	}
}

func TestPublicCallocRealloc(t *testing.T) {
	h, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 2, ReplicatedMode: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Calloc(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := h.Mem().Load64(p)
	if v != 0 {
		t.Fatalf("calloc not zeroed: %#x", v)
	}
	if err := WriteString(h.Mem(), p, "persist"); err != nil {
		t.Fatal(err)
	}
	q, err := h.Realloc(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ReadString(h.Mem(), q, 32)
	if err != nil || s != "persist" {
		t.Fatalf("realloc lost data: %q %v", s, err)
	}
}

func TestPublicCheckedStrcpy(t *testing.T) {
	h, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := h.Malloc(128)
	dst, _ := h.Malloc(16)
	if err := WriteString(h.Mem(), src, strings.Repeat("Z", 100)); err != nil {
		t.Fatal(err)
	}
	n, err := h.Strcpy(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("checked strcpy copied %d, want 15", n)
	}
	n, err = h.Strncpy(dst, src, 1000) // wrong length, capped
	if err != nil || n != 15 {
		t.Fatalf("checked strncpy copied %d, %v", n, err)
	}
}

func TestPublicReplicatedRun(t *testing.T) {
	prog := func(ctx *Context) error {
		buf, err := ctx.Alloc.Malloc(len(ctx.Input))
		if err != nil {
			return err
		}
		if err := ctx.Mem.WriteBytes(buf, ctx.Input); err != nil {
			return err
		}
		out := make([]byte, len(ctx.Input))
		if err := ctx.Mem.ReadBytes(buf, out); err != nil {
			return err
		}
		_, err = ctx.Out.Write(out)
		return err
	}
	res, err := Run(prog, []byte("replicated hello"), RunOptions{Replicas: 3, HeapSize: 12 << 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "replicated hello" || !res.Agreed {
		t.Fatalf("%q %+v", res.Output, res)
	}
}

func TestPublicVoterEnginesAgree(t *testing.T) {
	// The facade exposes both voting engines; for the same seed they
	// must commit identical bytes (DESIGN.md §8).
	prog := func(ctx *Context) error {
		for i := 0; i < 2000; i++ {
			if _, err := fmt.Fprintf(ctx.Out, "line %04d\n", i); err != nil {
				return err
			}
		}
		return nil
	}
	pipe, err := Run(prog, nil, RunOptions{Replicas: 3, HeapSize: 12 << 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(prog, nil, RunOptions{Replicas: 3, HeapSize: 12 << 20, Seed: 6, SequentialVoter: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pipe.Output, seq.Output) || pipe.Rounds != seq.Rounds {
		t.Fatalf("engines diverge: pipelined %d bytes/%d rounds, sequential %d bytes/%d rounds",
			len(pipe.Output), pipe.Rounds, len(seq.Output), seq.Rounds)
	}
	if pipe.Rounds < 4 {
		t.Fatalf("expected a multi-round run, got %d rounds", pipe.Rounds)
	}
}

func TestPublicUninitDetection(t *testing.T) {
	prog := func(ctx *Context) error {
		p, err := ctx.Alloc.Malloc(64)
		if err != nil {
			return err
		}
		v, err := ctx.Mem.Load64(p) // uninitialized read
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(ctx.Out, "%d", v)
		return err
	}
	res, err := Run(prog, nil, RunOptions{Replicas: 3, HeapSize: 12 << 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UninitSuspected {
		t.Fatal("uninitialized read not detected")
	}
}

func TestPublicTheorems(t *testing.T) {
	if p := OverflowMaskProbability(1.0/8, 1, 1); math.Abs(p-0.875) > 1e-12 {
		t.Fatalf("Theorem 1: %v", p)
	}
	if p := DanglingMaskProbability(10000, 8, (384<<20)/12/2, 1); p <= 0.995 {
		t.Fatalf("Theorem 2 worked example: %v", p)
	}
	if p := UninitDetectProbability(4, 3); math.Abs(p-0.8203) > 0.001 {
		t.Fatalf("Theorem 3: %v", p)
	}
}

func TestSeedReproducesLayout(t *testing.T) {
	a, _ := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 7})
	b, _ := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: a.Seed()})
	for i := 0; i < 50; i++ {
		pa, _ := a.Malloc(32)
		pb, _ := b.Malloc(32)
		if pa != pb {
			t.Fatal("recorded seed did not reproduce layout")
		}
	}
}

// TestReplicatedModeComposition pins which options a replicated-mode
// heap takes: it is sequential, so Concurrent is refused with an error
// naming both options, and so are magazines (a batched refill draws its
// probes ahead of the fills); generation tags compose with it.
func TestReplicatedModeComposition(t *testing.T) {
	_, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 7, ReplicatedMode: true, Concurrent: true})
	if err == nil || !strings.Contains(err.Error(), "RandomFill") || !strings.Contains(err.Error(), "Concurrent") {
		t.Fatalf("ReplicatedMode + Concurrent: err = %v, want a refusal naming both options", err)
	}
	h, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 7, ReplicatedMode: true, GenTags: true})
	if err != nil {
		t.Fatalf("ReplicatedMode + GenTags refused: %v", err)
	}
	if _, err := h.NewMagazine(); err == nil {
		t.Error("NewMagazine on a ReplicatedMode heap succeeded; want error")
	}
	fp, err := h.MallocFat(64)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := h.Mem().Load64(fp.Addr); v == 0 {
		t.Error("replicated-mode object not filled")
	}
	if ok, err := h.FreeFat(fp); !ok || err != nil {
		t.Fatalf("FreeFat = %v, %v", ok, err)
	}
	if ok, _ := h.FreeFat(fp); ok || h.Stats().StaleFrees != 1 {
		t.Errorf("stale FreeFat accepted (StaleFrees %d)", h.Stats().StaleFrees)
	}
}

func TestDiscardWriter(t *testing.T) {
	n, err := Discard.Write([]byte("ignored"))
	if err != nil || n != 7 {
		t.Fatalf("%d %v", n, err)
	}
}

func TestPublicHeapDifferencing(t *testing.T) {
	build := func(h *Heap) Ptr {
		var last Ptr
		for i := 0; i < 50; i++ {
			p, err := h.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Mem().Store64(p, uint64(i)); err != nil {
				t.Fatal(err)
			}
			last = p
		}
		return last
	}
	a, _ := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 0xD1FF})
	b, _ := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 0xD1FF})
	build(a)
	victim := build(b)
	// The "incorrect execution" scribbles on one object.
	if err := b.Mem().Store64(victim, 0xBAD); err != nil {
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
	if len(diffs) != 1 || diffs[0].Ptr != victim {
		t.Fatalf("differencing did not pinpoint the corruption: %v", diffs)
	}
}

func TestPublicStrcatStrdup(t *testing.T) {
	h, _ := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 6})
	dst, _ := h.Malloc(16)
	src, _ := h.Malloc(64)
	if err := WriteString(h.Mem(), dst, "prob"); err != nil {
		t.Fatal(err)
	}
	if err := WriteString(h.Mem(), src, strings.Repeat("y", 50)); err != nil {
		t.Fatal(err)
	}
	n, err := h.Strcat(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 { // 16-byte object: "prob" + 11 + NUL
		t.Fatalf("checked strcat appended %d, want 11", n)
	}
	dup, err := h.Strdup(dst)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := ReadString(h.Mem(), dup, 32)
	if s != "prob"+strings.Repeat("y", 11) {
		t.Fatalf("strdup got %q", s)
	}
}

func TestFacadeDetection(t *testing.T) {
	h, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 7, DetectCanaries: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Malloc(56)
	if err != nil {
		t.Fatal(err)
	}
	// An uninitialized read through the checked view...
	if _, err := h.Memory().Load64(p); err != nil {
		t.Fatal(err)
	}
	// ...then a 4-byte overflow, audited when the object is freed.
	if err := h.Memory().Memset(p, 'A', 60); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	rep := h.DetectionReport()
	if rep == nil {
		t.Fatal("no detection report from a DetectCanaries heap")
	}
	var kinds []DetectKind
	for _, ev := range rep.Evidence {
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) != 2 || kinds[0] != KindUninit || kinds[1] != KindOverflow {
		t.Fatalf("evidence kinds = %v, want [uninit, overflow]", kinds)
	}
	if n := h.HeapCheck(); n != 0 {
		t.Errorf("post-free HeapCheck found %d records on an already-audited heap", n)
	}
	// Triage across seeded layouts through the facade.
	var reports []*DetectionReport
	for seed := uint64(1); seed <= 4; seed++ {
		hh, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: seed, DetectCanaries: true})
		if err != nil {
			t.Fatal(err)
		}
		q, err := hh.Malloc(56)
		if err != nil {
			t.Fatal(err)
		}
		if err := hh.Memory().Memset(q, 'B', 60); err != nil {
			t.Fatal(err)
		}
		if err := hh.Free(q); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, hh.DetectionReport())
	}
	tri := Triage(KindOverflow, reports)
	if tri.Culprit != 0 || tri.Detected != 4 {
		t.Fatalf("triage = %+v, want culprit site 0 detected in all 4 layouts", tri)
	}
	// A detection-less heap answers benignly.
	plain, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.DetectionReport() != nil || plain.HeapCheck() != 0 {
		t.Error("plain heap pretends to detect")
	}
}

func TestFacadeRemoteFreeRing(t *testing.T) {
	// The public remote-free surface: frees enqueued from another
	// goroutine are deferred but exactly-once, and the option rejects
	// configurations the ring cannot batch past.
	h, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 5, Concurrent: true, RemoteFreeRing: true})
	if err != nil {
		t.Fatal(err)
	}
	// Fill class 64 to its 1/M threshold, so every further malloc can
	// succeed only by draining queued remote frees.
	var ptrs []Ptr
	for {
		p, err := h.Malloc(64)
		if err != nil {
			break
		}
		ptrs = append(ptrs, p)
	}
	const n = 200
	victims := ptrs[:n]
	done := make(chan error, 1)
	go func() {
		for _, p := range victims {
			if err := h.RemoteFree(p); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The heap is at threshold and the frees are parked on the ring:
	// these mallocs succeed only because the malloc miss drains it.
	for i := 0; i < n; i++ {
		if _, err := h.Malloc(64); err != nil {
			t.Fatalf("malloc %d at threshold with %d queued remote frees: %v", i, n, err)
		}
	}
	st := h.Stats()
	if st.Frees != n || st.RemoteFrees != n {
		t.Fatalf("Frees = %d, RemoteFrees = %d; want both %d (drained exactly once)", st.Frees, st.RemoteFrees, n)
	}
	for _, bad := range []HeapOptions{
		{HeapSize: 12 << 20, Seed: 5, RemoteFreeRing: true},                                         // not Concurrent
		{HeapSize: 12 << 20, Seed: 5, Concurrent: true, ReplicatedMode: true, RemoteFreeRing: true}, // replicated
		{HeapSize: 12 << 20, Seed: 5, DetectCanaries: true, RemoteFreeRing: true},                   // canary hooks
	} {
		if _, err := NewHeap(bad); err == nil {
			t.Fatalf("options %+v accepted with RemoteFreeRing", bad)
		}
	}
	// Without the ring, RemoteFree degrades to Free.
	plain, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plain.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.RemoteFree(p); err != nil {
		t.Fatal(err)
	}
	if st := plain.Stats(); st.Frees != 1 || st.RemoteFrees != 0 {
		t.Fatalf("ring-less RemoteFree: Frees = %d, RemoteFrees = %d; want 1, 0", st.Frees, st.RemoteFrees)
	}
}

func TestFacadeGenTags(t *testing.T) {
	// Plain gen-tagged heap: fat allocation, deterministic stale-free
	// rejection, temporal validity check.
	h, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 7, GenTags: true})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := h.MallocFat(64)
	if err != nil {
		t.Fatal(err)
	}
	if !h.CheckGen(fp) {
		t.Fatal("fresh fat pointer not current")
	}
	if ok, err := h.FreeFat(fp); !ok || err != nil {
		t.Fatalf("FreeFat = %v, %v", ok, err)
	}
	if h.CheckGen(fp) {
		t.Fatal("dead fat pointer still validates")
	}
	if ok, _ := h.FreeFat(fp); ok {
		t.Fatal("double free accepted on a gen-tagged heap")
	}
	if st := h.Stats(); st.StaleFrees != 1 {
		t.Fatalf("StaleFrees = %d; want 1", st.StaleFrees)
	}
	if h.GenMemory() != nil {
		t.Fatal("GenMemory non-nil without DetectCanaries")
	}

	// Detection + gen tags: the generation-checked view reports stale
	// accesses as evidence alongside the canary engine.
	dh, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 8, GenTags: true, DetectCanaries: true})
	if err != nil {
		t.Fatal(err)
	}
	gm := dh.GenMemory()
	if gm == nil {
		t.Fatal("GenMemory nil on a DetectCanaries+GenTags heap")
	}
	fp2, err := dh.MallocFat(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := dh.Memory().Memset(fp2.Addr, 0x11, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := gm.Load64(fp2, 0); err != nil {
		t.Fatal(err)
	}
	if ok, err := dh.FreeFat(fp2); !ok || err != nil {
		t.Fatalf("FreeFat = %v, %v", ok, err)
	}
	if _, err := gm.Load64(fp2, 0); err != nil {
		t.Fatal(err)
	}
	if ok, _ := dh.FreeFat(fp2); ok {
		t.Fatal("stale free accepted")
	}
	rep := dh.DetectionReport()
	var stale, access int
	for _, ev := range rep.Evidence {
		switch ev.Kind {
		case KindStaleFree:
			stale++
		case KindStaleAccess:
			access++
		}
	}
	if access == 0 {
		t.Fatalf("no stale-access evidence after a dead load: %+v", rep.Evidence)
	}
	_ = stale // the (addr, gen) dedup may fold the free into the access record
}
