package replicate

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"diehard/internal/heap"
	"diehard/internal/libc"
)

const testHeap = 12 << 20

// echoProgram copies input to output through the simulated heap.
func echoProgram(ctx *Context) error {
	buf, err := ctx.Alloc.Malloc(len(ctx.Input) + 1)
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

func TestReplicatedEcho(t *testing.T) {
	input := []byte(strings.Repeat("the quick brown fox ", 100))
	res, err := Run(echoProgram, input, Options{Replicas: 3, HeapSize: testHeap, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, input) {
		t.Fatalf("output differs from input: %d vs %d bytes", len(res.Output), len(input))
	}
	if !res.Agreed || res.Survivors != 3 || res.UninitSuspected {
		t.Fatalf("result %+v", res)
	}
}

func TestSingleReplicaPassThrough(t *testing.T) {
	res, err := Run(echoProgram, []byte("hello"), Options{Replicas: 1, HeapSize: testHeap, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "hello" || !res.Agreed {
		t.Fatalf("result %+v", res)
	}
}

func TestReplicasGetDistinctSeeds(t *testing.T) {
	res, err := Run(echoProgram, []byte("x"), Options{Replicas: 5, HeapSize: testHeap, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, r := range res.Replicas {
		if seen[r.Seed] {
			t.Fatal("two replicas share a seed")
		}
		seen[r.Seed] = true
	}
}

func TestMultiChunkOutput(t *testing.T) {
	// Output far larger than the 4 KB voting buffer: several barriers.
	prog := func(ctx *Context) error {
		line := []byte(strings.Repeat("z", 100))
		for i := 0; i < 500; i++ {
			if _, err := ctx.Out.Write(line); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 50000 {
		t.Fatalf("output %d bytes, want 50000", len(res.Output))
	}
	if res.Rounds < 12 {
		t.Fatalf("expected many voting rounds, got %d", res.Rounds)
	}
	if !res.Agreed {
		t.Fatal("identical replicas should agree")
	}
}

func TestDivergentMinorityIsKilled(t *testing.T) {
	// One replica misbehaves (branching on its index stands in for a
	// corrupted replica); the majority commits and the deviant dies.
	prog := func(ctx *Context) error {
		msg := "all agree on this message\n"
		if ctx.Replica == 1 {
			msg = "i took a memory error to the knee\n"
		}
		_, err := ctx.Out.Write([]byte(msg))
		return err
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "all agree on this message\n" {
		t.Fatalf("committed %q", res.Output)
	}
	if !res.Replicas[1].Killed {
		t.Fatal("deviant replica not killed")
	}
	if res.Survivors != 2 || !res.Agreed {
		t.Fatalf("result %+v", res)
	}
}

func TestKilledReplicaWritesFail(t *testing.T) {
	// A killed replica's writes return ErrKilled. The kill may land up
	// to PipelineDepth buffers after the disagreeing one, so the deviant
	// keeps writing until it fails; the bound asserts the kill arrives
	// within the documented window.
	sawKill := make(chan error, 1)
	prog := func(ctx *Context) error {
		payload := bytes.Repeat([]byte("a"), BufferSize)
		if ctx.Replica == 0 {
			payload = bytes.Repeat([]byte("b"), BufferSize)
		}
		if ctx.Replica == 0 {
			for i := 0; i < PipelineDepth+2; i++ {
				if _, err := ctx.Out.Write(payload); err != nil {
					sawKill <- err
					return err
				}
			}
			sawKill <- nil
			return nil
		}
		for i := 0; i < PipelineDepth+2; i++ {
			if _, err := ctx.Out.Write(payload); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replicas[0].Killed {
		t.Fatalf("replica 0 should be killed: %+v", res)
	}
	if e := <-sawKill; e != ErrKilled {
		t.Fatalf("killed replica's write returned %v", e)
	}
}

func TestCrashedReplicaIsDiscarded(t *testing.T) {
	// One replica segfaults (simulated via a wild read); the others
	// complete and agree.
	prog := func(ctx *Context) error {
		if ctx.Replica == 2 {
			if _, err := ctx.Mem.Load8(0xdead0000); err != nil {
				return err // the crash
			}
		}
		_, err := ctx.Out.Write([]byte("fine\n"))
		return err
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "fine\n" {
		t.Fatalf("committed %q", res.Output)
	}
	if res.Replicas[2].Err == nil {
		t.Fatal("crashed replica has no recorded error")
	}
	if res.Survivors != 2 {
		t.Fatalf("survivors = %d", res.Survivors)
	}
}

func TestAllCrashedNoOutput(t *testing.T) {
	prog := func(ctx *Context) error {
		_, err := ctx.Mem.Load8(0xdead0000)
		return err
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 0 || res.Agreed {
		t.Fatalf("result %+v", res)
	}
}

func TestUninitializedReadDetected(t *testing.T) {
	// The flagship §3.2 behaviour: a program whose output depends on
	// uninitialized heap memory produces a different result in every
	// replica (random fill with distinct seeds), so no two agree.
	prog := func(ctx *Context) error {
		p, err := ctx.Alloc.Malloc(64)
		if err != nil {
			return err
		}
		v, err := ctx.Mem.Load64(p) // never written: uninitialized read
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(ctx.Out, "value: %d\n", v)
		return err
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UninitSuspected {
		t.Fatalf("uninitialized read not detected: %+v", res)
	}
	if res.Agreed {
		t.Fatal("run with divergent output cannot be agreed")
	}
}

func TestUninitializedReadMissedWithoutRandomFill(t *testing.T) {
	// Control experiment: the same program run on stand-alone heaps
	// (zero-filled fresh pages) would agree everywhere. This guards the
	// mechanism: detection comes from the random fill, not the voter.
	type probe struct {
		val uint64
	}
	vals := make(chan probe, 3)
	prog := func(ctx *Context) error {
		p, err := ctx.Alloc.Malloc(64)
		if err != nil {
			return err
		}
		v, err := ctx.Mem.Load64(p)
		if err != nil {
			return err
		}
		vals <- probe{v}
		_, err = ctx.Out.Write([]byte("done"))
		return err
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Replicated mode fills memory randomly, so the three probes differ.
	a, b, c := <-vals, <-vals, <-vals
	if a.val == b.val && b.val == c.val {
		t.Fatal("replicated heaps returned identical uninitialized contents")
	}
	_ = res
}

func TestVirtualClockIsDeterministic(t *testing.T) {
	// Replicas that consult the clock still agree: the date functions
	// are intercepted (§5.3).
	prog := func(ctx *Context) error {
		for i := 0; i < 5; i++ {
			if _, err := fmt.Fprintf(ctx.Out, "t=%d\n", ctx.Now()); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed || res.Survivors != 3 {
		t.Fatalf("clock-using replicas disagreed: %+v", res)
	}
	if !strings.Contains(string(res.Output), "t=1150000001") {
		t.Fatalf("unexpected clock output %q", res.Output)
	}
}

func TestCheckedLibcAvailable(t *testing.T) {
	// The Context exposes bounds resolution so programs can use the
	// safe strcpy replacement.
	prog := func(ctx *Context) error {
		src, err := ctx.Alloc.Malloc(64)
		if err != nil {
			return err
		}
		dst, err := ctx.Alloc.Malloc(8)
		if err != nil {
			return err
		}
		if err := libc.WriteString(ctx.Mem, src, strings.Repeat("Q", 40)); err != nil {
			return err
		}
		n, err := libc.SafeStrcpy(ctx.Bounds, ctx.Mem, dst, src)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(ctx.Out, "copied %d\n", n)
		return err
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "copied 7\n" || !res.Agreed {
		t.Fatalf("result %q %+v", res.Output, res)
	}
}

func TestManyReplicas(t *testing.T) {
	// The §7.2.3 configuration: sixteen replicas.
	input := []byte(strings.Repeat("scale ", 200))
	res, err := Run(echoProgram, input, Options{Replicas: 16, HeapSize: testHeap, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 16 || !res.Agreed {
		t.Fatalf("result %+v", res)
	}
	if !bytes.Equal(res.Output, input) {
		t.Fatal("output mismatch")
	}
}

func TestPanicInReplicaIsACrash(t *testing.T) {
	prog := func(ctx *Context) error {
		if ctx.Replica == 0 {
			panic("boom")
		}
		_, err := ctx.Out.Write([]byte("ok"))
		return err
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas[0].Err == nil || res.Survivors != 2 {
		t.Fatalf("panic not treated as crash: %+v", res)
	}
	if string(res.Output) != "ok" {
		t.Fatalf("output %q", res.Output)
	}
}

func TestInvalidReplicaCount(t *testing.T) {
	if _, err := Run(echoProgram, nil, Options{Replicas: -1}); err == nil {
		t.Fatal("negative replica count accepted")
	}
	// A negative restart budget is refused by name, neither read as 0
	// nor left to size the voter's slices.
	for _, n := range []int{-1, -4} {
		_, err := Run(echoProgram, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 1, MaxRestarts: n})
		if err == nil || !strings.Contains(err.Error(), "MaxRestarts") {
			t.Fatalf("MaxRestarts %d: err = %v, want a refusal naming MaxRestarts", n, err)
		}
	}
}

var _ = heap.Null

func TestTwoReplicasCannotAdjudicate(t *testing.T) {
	// With two replicas the voter cannot tell who is right (§6 assumes
	// one or at least three); disagreement terminates the run like an
	// uninitialized-read detection.
	prog := func(ctx *Context) error {
		msg := "a"
		if ctx.Replica == 1 {
			msg = "b"
		}
		_, err := ctx.Out.Write([]byte(msg))
		return err
	}
	res, err := Run(prog, nil, Options{Replicas: 2, HeapSize: testHeap, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UninitSuspected || res.Agreed {
		t.Fatalf("two disagreeing replicas must terminate: %+v", res)
	}
}

func TestLoneSurvivorLosesQuorum(t *testing.T) {
	// Two of three replicas crash; the survivor's output streams for
	// availability but the run is not "agreed".
	prog := func(ctx *Context) error {
		if ctx.Replica != 0 {
			_, err := ctx.Mem.Load8(0xdead0000)
			return err
		}
		_, err := ctx.Out.Write([]byte("alone\n"))
		return err
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "alone\n" {
		t.Fatalf("survivor output lost: %q", res.Output)
	}
	if res.Agreed {
		t.Fatal("a lone survivor has no quorum")
	}
	if res.Survivors != 1 {
		t.Fatalf("survivors = %d", res.Survivors)
	}
}

func TestEmptyOutputAgrees(t *testing.T) {
	prog := func(ctx *Context) error { return nil }
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed || res.Survivors != 3 || len(res.Output) != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestPageFillerCountsInReplicatedMode(t *testing.T) {
	// §4.1 realized lazily: in replicated (RandomFill) mode every page a
	// replica first touches is pre-filled from its private stream, and
	// each page is filled exactly once. PagesDirty counts filler
	// invocations; the deltas must match the pages an allocation
	// actually touches, and re-touching must fire nothing.
	const replicas = 3
	type obs struct {
		deltaFirst  uint64
		deltaSecond uint64
	}
	var mu sync.Mutex
	results := make(map[int]obs)

	prog := func(ctx *Context) error {
		st := ctx.Alloc.Mem().Stats()
		// A 64 KB object: RandomFill writes the whole object, so at
		// least 16 pages must be instantiated (17 if it straddles).
		before := st.PagesDirty
		p, err := ctx.Alloc.Malloc(64 << 10)
		if err != nil {
			return err
		}
		deltaFirst := st.PagesDirty - before

		// Rewriting the same object must not re-fire the filler.
		mid := st.PagesDirty
		if err := ctx.Mem.Memset(p, 0xEE, 64<<10); err != nil {
			return err
		}
		if err := ctx.Mem.Memset(p, 0x11, 64<<10); err != nil {
			return err
		}
		deltaSecond := st.PagesDirty - mid

		mu.Lock()
		results[ctx.Replica] = obs{deltaFirst, deltaSecond}
		mu.Unlock()
		_, err = ctx.Out.Write([]byte("done"))
		return err
	}

	res, err := Run(prog, nil, Options{Replicas: replicas, HeapSize: testHeap, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != replicas || !res.Agreed {
		t.Fatalf("replicated run failed: %+v", res)
	}
	for i := 0; i < replicas; i++ {
		o, ok := results[i]
		if !ok {
			t.Fatalf("replica %d reported nothing", i)
		}
		if o.deltaFirst < 16 || o.deltaFirst > 17 {
			t.Errorf("replica %d: first touch instantiated %d pages, want 16-17", i, o.deltaFirst)
		}
		if o.deltaSecond != 0 {
			t.Errorf("replica %d: re-touch instantiated %d pages, want 0", i, o.deltaSecond)
		}
	}
}
