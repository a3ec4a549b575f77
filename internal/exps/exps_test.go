package exps

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"diehard/internal/analysis"
	"diehard/internal/apps"
	"diehard/internal/replicate"
)

// --- Figure 4(a): buffer overflow masking, validated on the real
// allocator ---

func TestFigure4aReproduction(t *testing.T) {
	skipIfShort(t)
	const heapSize = 3 << 20 // 256 KB per class: fast fills, same math
	for _, tc := range []struct {
		fullness float64
		k        int
	}{
		{1.0 / 8, 1},
		{1.0 / 8, 3},
		{1.0 / 4, 1},
		{1.0 / 2, 1},
	} {
		want := analysis.OverflowMaskProb(tc.fullness, 1, tc.k)
		got, err := EmpiricalOverflowMask(tc.fullness, tc.k, 2000, heapSize, 42)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.04 {
			t.Errorf("fullness=%v k=%d: empirical %.3f vs Theorem 1 %.3f",
				tc.fullness, tc.k, got, want)
		}
	}
}

// --- Figure 4(b): dangling masking, validated on the real allocator ---

func TestFigure4bReproduction(t *testing.T) {
	skipIfShort(t)
	// Small heap so the effect is measurable: 12 pages -> class-64
	// partition is one page = 64 slots.
	const heapSize = 12 << 12
	for _, tc := range []struct {
		size, allocs int
	}{
		{64, 8},
		{64, 16},
		{64, 24},
	} {
		got, err := EmpiricalDanglingMask(tc.size, tc.allocs, 3000, heapSize, 7)
		if err != nil {
			t.Fatal(err)
		}
		// q = one page / 64 = 64 slots; Theorem 2 bound = 1 - A/q.
		want := 1 - float64(tc.allocs)/64
		if got < want-0.05 {
			t.Errorf("S=%d A=%d: empirical %.3f below Theorem 2 bound %.3f",
				tc.size, tc.allocs, got, want)
		}
		if got > want+0.08 {
			t.Errorf("S=%d A=%d: empirical %.3f implausibly above bound %.3f",
				tc.size, tc.allocs, got, want)
		}
	}
}

// --- §6.2 worked example ---

func TestDanglingWorkedExample(t *testing.T) {
	p := analysis.DanglingMaskProb(10000, 8, analysis.DefaultClassFreeBytes, 1)
	if p <= 0.995 {
		t.Fatalf("default-config 8-byte/10000-alloc masking = %v, paper says > 99.5%%", p)
	}
}

// --- §4.2 expected probes ---

func TestExpectedProbesMatchesBound(t *testing.T) {
	skipIfShort(t)
	for _, m := range []float64{2, 4} {
		got, err := EmpiricalProbeCount(m, 3<<20, 99)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / (1 - 1/m)
		if math.Abs(got-want) > 0.2 {
			t.Errorf("M=%v: mean probes %.3f, expected about %.3f", m, got, want)
		}
	}
}

// --- Table 1 ---

func TestTable1ErrorMatrix(t *testing.T) {
	skipIfShort(t)
	table, err := RunErrorTable(1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[ErrorClass]map[string]Outcome{
		ErrMetadataOverwrite: {
			"GNU libc": OutcomeUndefined, "BDW GC": OutcomeUndefined,
			"CCured": OutcomeAbort, "Rx": OutcomeCorrect,
			"Failure-oblivious": OutcomeUndefined, "DieHard": OutcomeCorrect,
		},
		ErrInvalidFree: {
			"GNU libc": OutcomeUndefined, "BDW GC": OutcomeCorrect,
			"CCured": OutcomeCorrect, "Rx": OutcomeUndefined,
			"Failure-oblivious": OutcomeUndefined, "DieHard": OutcomeCorrect,
		},
		ErrDoubleFree: {
			"GNU libc": OutcomeUndefined, "BDW GC": OutcomeCorrect,
			"CCured": OutcomeCorrect, "Rx": OutcomeCorrect,
			"Failure-oblivious": OutcomeUndefined, "DieHard": OutcomeCorrect,
		},
		ErrDangling: {
			"GNU libc": OutcomeUndefined, "BDW GC": OutcomeCorrect,
			"CCured": OutcomeCorrect, "Rx": OutcomeUndefined,
			"Failure-oblivious": OutcomeUndefined, "DieHard": OutcomeCorrect,
		},
		ErrOverflow: {
			"GNU libc": OutcomeUndefined, "BDW GC": OutcomeUndefined,
			"CCured": OutcomeAbort, "Rx": OutcomeUndefined,
			"Failure-oblivious": OutcomeUndefined, "DieHard": OutcomeCorrect,
		},
		ErrUninitRead: {
			"GNU libc": OutcomeUndefined, "BDW GC": OutcomeUndefined,
			"CCured": OutcomeAbort, "Rx": OutcomeUndefined,
			"Failure-oblivious": OutcomeUndefined, "DieHard": OutcomeAbort,
		},
	}
	for _, class := range TableClasses {
		for _, system := range TableSystems {
			if got := table.Cell[class][system]; got != want[class][system] {
				t.Errorf("%s x %s: got %s, paper says %s",
					class, system, got, want[class][system])
			}
		}
	}
}

// --- §7.3.1 fault injection ---

func TestFaultInjectionDangling(t *testing.T) {
	skipIfShort(t)
	const trials = 10
	// "This high error rate prevents espresso from running to
	// completion with the default allocator in all runs."
	libc, err := RunFaultInjection("espresso", KindMalloc, InjectDangling, trials, 1, 16<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if libc.Injected == 0 {
		t.Fatal("no faults injected")
	}
	if libc.Failures() < trials-1 {
		t.Errorf("libc survived %d/%d dangling runs; paper: 0/10 complete correctly (%+v)",
			libc.Correct, trials, libc)
	}
	// "However, with DieHard, espresso runs correctly in 9 out of 10
	// runs."
	dh, err := RunFaultInjection("espresso", KindDieHard, InjectDangling, trials, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dh.Correct < trials-1 {
		t.Errorf("DieHard correct in %d/%d dangling runs; paper: 9/10 (%+v)", dh.Correct, trials, dh)
	}
}

func TestFaultInjectionOverflow(t *testing.T) {
	skipIfShort(t)
	const trials = 10
	// "With the default allocator, espresso crashes in 9 out of 10 runs
	// and enters an infinite loop in the tenth."
	libc, err := RunFaultInjection("espresso", KindMalloc, InjectOverflow, trials, 3, 16<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if libc.Failures() < trials/2 {
		t.Errorf("libc survived %d/%d overflow runs; paper: 0/10 (%+v)", libc.Correct, trials, libc)
	}
	// "With DieHard, it runs successfully in all 10 of 10 runs."
	dh, err := RunFaultInjection("espresso", KindDieHard, InjectOverflow, trials, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dh.Correct < trials-1 {
		t.Errorf("DieHard correct in %d/%d overflow runs; paper: 10/10 (%+v)", dh.Correct, trials, dh)
	}
}

// --- §7.3 Squid real fault ---

func TestSquidRealFault(t *testing.T) {
	skipIfShort(t)
	results, err := RunSquidExperiment([]string{KindMalloc, KindGC, KindDieHard}, 8, 900, 24<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SquidResult{}
	for _, r := range results {
		byName[r.Allocator] = r
	}
	if byName[KindMalloc].Crashed != 8 {
		t.Errorf("libc squid: %+v, paper: crashes", byName[KindMalloc])
	}
	if byName[KindGC].Crashed != 8 {
		t.Errorf("GC squid: %+v, paper: crashes", byName[KindGC])
	}
	if byName[KindDieHard].Survived < 7 {
		t.Errorf("DieHard squid: %+v, paper: overflow has no effect", byName[KindDieHard])
	}
}

// --- Figure 5 shape ---

func TestFigure5aShape(t *testing.T) {
	skipIfShort(t)
	report, err := RunOverhead(PlatformLinux, 1, 0, 0x5a5a, 1)
	if err != nil {
		t.Fatal(err)
	}
	dhAI := report.GeoMean["alloc-intensive/"+KindDieHard]
	dhGP := report.GeoMean["general-purpose/"+KindDieHard]
	gcAI := report.GeoMean["alloc-intensive/"+KindGC]

	// DieHard costs more than malloc on the alloc-intensive suite.
	if dhAI <= 1.0 {
		t.Errorf("DieHard alloc-intensive geomean %.3f; paper: clearly above 1", dhAI)
	}
	// Its overhead on general-purpose codes is much lower than on
	// allocation-intensive ones (paper: 12%% vs 40%%).
	if dhGP >= dhAI {
		t.Errorf("DieHard general-purpose %.3f should undercut alloc-intensive %.3f", dhGP, dhAI)
	}
	if dhGP > 1.5 {
		t.Errorf("DieHard general-purpose geomean %.3f implausibly high", dhGP)
	}
	// GC also costs more than malloc on alloc-intensive codes.
	if gcAI <= 1.0 {
		t.Errorf("GC alloc-intensive geomean %.3f; paper: above 1", gcAI)
	}
	// The TLB outlier: twolf's DieHard run misses far more than its
	// malloc run (§7.2.1).
	for _, row := range report.Rows {
		if row.Benchmark == "300.twolf" {
			if row.TLBMisses[KindDieHard] <= row.TLBMisses[KindMalloc] {
				t.Errorf("twolf TLB misses: DieHard %d vs malloc %d; paper: DieHard much worse",
					row.TLBMisses[KindDieHard], row.TLBMisses[KindMalloc])
			}
		}
	}
}

func TestFigure5bShape(t *testing.T) {
	skipIfShort(t)
	report, err := RunOverhead(PlatformWindows, 1, 0, 0xb0b0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dhAI := report.GeoMean["alloc-intensive/"+KindDieHard]
	// Against the slow Windows default heap, DieHard is competitive
	// (paper: geometric mean effectively the same; some benchmarks run
	// faster).
	if dhAI > 1.15 {
		t.Errorf("DieHard vs Windows default heap geomean %.3f; paper: about 1.0", dhAI)
	}
	faster := 0
	for _, row := range report.Rows {
		if row.Kind == apps.AllocIntensive && row.Normalized[KindDieHard] < 1.0 {
			faster++
		}
	}
	if faster == 0 {
		t.Error("no benchmark runs faster under DieHard than the default heap; paper: several do")
	}
}

// --- §7.2.3 replicated scaling ---

func TestReplicatedScaling(t *testing.T) {
	skipIfShort(t)
	// workers=1: the assertion below is about wall-clock ratios, which
	// only mean something when the sweep points run one at a time.
	points, err := RunReplicatedScaling("espresso", []int{1, 16}, 1, 12<<20, 0xca1e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("want 2 points, got %d", len(points))
	}
	p16 := points[1]
	if p16.Survivors != 16 || !p16.Agreed {
		t.Fatalf("16 replicas did not agree: %+v", p16)
	}
	// On a multiprocessor the 16-replica run costs far less than 16x
	// one replica (paper: about 1.5x on a 16-way machine). Bound the
	// assertion by available parallelism so the test is meaningful on
	// any host.
	if runtime.NumCPU() >= 8 && p16.RelativeToOne > 8 {
		t.Errorf("16 replicas cost %.1fx one replica on %d CPUs; replication is not scaling",
			p16.RelativeToOne, runtime.NumCPU())
	}
}

func TestReplicatedScalingRejectsLindsay(t *testing.T) {
	if _, err := RunReplicatedScaling("lindsay", []int{1}, 1, 12<<20, 1, 1); err == nil {
		t.Fatal("lindsay must be rejected, as the paper excludes it")
	}
}

// --- plumbing ---

func TestNewAllocatorKinds(t *testing.T) {
	for _, kind := range []string{KindDieHard, KindMalloc, KindGC, KindWin} {
		a, err := NewAllocator(AllocConfig{Kind: kind, HeapSize: 8 << 20, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		p, err := a.Malloc(64)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := a.Mem().Store64(p, 1); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if _, err := NewAllocator(AllocConfig{Kind: "bogus"}); err == nil {
		t.Fatal("bogus allocator kind accepted")
	}
	// An unknown Figure 5 platform is refused before any cell runs.
	if _, err := RunOverhead("solaris", 1, 0, 1, 1); !errors.Is(err, ErrUnknownPlatform) {
		t.Fatalf("platform solaris: err = %v, want ErrUnknownPlatform", err)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("GeoMean(2,8) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v", g)
	}
}

// --- §5 end to end: real workloads under replication ---

func TestAppsAgreeUnderReplication(t *testing.T) {
	skipIfShort(t)
	// Deterministic applications produce identical output in every
	// replica despite fully randomized, randomly-filled heaps; the
	// voter commits unanimously.
	for _, name := range []string{"cfrac", "espresso", "p2c", "255.vortex"} {
		app, _ := apps.Get(name)
		prog := func(ctx *replicate.Context) error {
			rt := &apps.Runtime{Alloc: ctx.Alloc, Mem: ctx.Mem, Input: ctx.Input, Out: ctx.Out}
			return app.Run(rt)
		}
		res, err := replicate.Run(prog, app.Input(1), replicate.Options{
			Replicas: 3, HeapSize: 48 << 20, Seed: 0xAA + uint64(len(name)),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Agreed || res.Survivors != 3 {
			t.Errorf("%s: replicas disagreed: %+v", name, res)
		}
		if len(res.Output) == 0 {
			t.Errorf("%s: no output committed", name)
		}
	}
}

func TestLindsayDetectedUnderReplication(t *testing.T) {
	// The paper found lindsay's uninitialized read with replicated
	// DieHard ("The replicated version of DieHard typically terminated
	// in several seconds", §6.3); our lindsay carries the same bug and
	// is detected the same way.
	app, _ := apps.Get("lindsay")
	prog := func(ctx *replicate.Context) error {
		rt := &apps.Runtime{Alloc: ctx.Alloc, Mem: ctx.Mem, Input: ctx.Input, Out: ctx.Out}
		return app.Run(rt)
	}
	res, err := replicate.Run(prog, app.Input(1), replicate.Options{
		Replicas: 3, HeapSize: 48 << 20, Seed: 0x11D,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UninitSuspected {
		t.Fatalf("lindsay's uninitialized read went undetected: %+v", res)
	}
}

// --- validation entry points guard their inputs ---

func TestEmpiricalValidatorErrors(t *testing.T) {
	if _, err := EmpiricalOverflowMask(0.9, 1, 10, 3<<20, 1); err == nil {
		t.Fatal("fullness beyond 1/M accepted")
	}
	if _, err := EmpiricalOverflowMask(0, 1, 10, 3<<20, 1); err == nil {
		t.Fatal("zero fullness accepted")
	}
}

// skipIfShort skips the long statistical reproductions in -short mode;
// the race-detector CI job uses it to focus on the concurrency tests.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("statistical reproduction skipped in short mode")
	}
}
