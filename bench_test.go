// Repository-level benchmarks: one per table and figure of the paper's
// evaluation, plus ablations of DieHard's design decisions. Each bench
// regenerates its experiment and reports the paper-comparable quantities
// as custom metrics (testing.B metrics are the "rows" of the figure).
//
//	go test -bench=. -benchmem
package diehard

import (
	"strings"
	"testing"

	"diehard/internal/analysis"
	"diehard/internal/core"
	"diehard/internal/exps"
	"diehard/internal/heap"
	"diehard/internal/libc"
	"diehard/internal/rng"
)

// --- Figure 4(a): probability of masking buffer overflows ---

func BenchmarkFig4aOverflowMasking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = analysis.SimOverflowMask(2000, 4096, 1, 3, 1.0/8, uint64(i)+1)
	}
	b.ReportMetric(analysis.OverflowMaskProb(1.0/8, 1, 1), "P(mask)/1replica-1/8full")
	b.ReportMetric(analysis.OverflowMaskProb(1.0/8, 1, 3), "P(mask)/3replicas-1/8full")
	b.ReportMetric(analysis.OverflowMaskProb(1.0/2, 1, 3), "P(mask)/3replicas-1/2full")
}

// --- Figure 4(b): probability of masking dangling pointers ---

func BenchmarkFig4bDanglingMasking(b *testing.B) {
	q := analysis.DefaultClassFreeBytes / 8
	for i := 0; i < b.N; i++ {
		_ = analysis.SimDanglingMask(2000, q, 10000, 1, uint64(i)+1)
	}
	b.ReportMetric(analysis.DanglingMaskProb(10000, 8, analysis.DefaultClassFreeBytes, 1), "P(mask)/8B-10000allocs")
	b.ReportMetric(analysis.DanglingMaskProb(10000, 256, analysis.DefaultClassFreeBytes, 1), "P(mask)/256B-10000allocs")
}

// --- §6.3 / Theorem 3: uninitialized read detection ---

func BenchmarkUninitDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = analysis.SimUninitDetect(2000, 4, 3, uint64(i)+1)
	}
	b.ReportMetric(analysis.UninitDetectProb(4, 3), "P(detect)/4bit-3replicas")
	b.ReportMetric(analysis.UninitDetectProb(4, 4), "P(detect)/4bit-4replicas")
	b.ReportMetric(analysis.UninitDetectProb(16, 3), "P(detect)/16bit-3replicas")
}

// --- Figure 5(a): normalized runtime on "Linux" (malloc / GC / DieHard) ---

func BenchmarkFig5aLinux(b *testing.B) {
	var report *exps.OverheadReport
	for i := 0; i < b.N; i++ {
		r, err := exps.RunOverhead(exps.PlatformLinux, 1, 0, 0x5a5a, 1)
		if err != nil {
			b.Fatal(err)
		}
		report = r
	}
	b.ReportMetric(report.GeoMean["alloc-intensive/"+exps.KindDieHard], "DieHard-alloc-intensive-x")
	b.ReportMetric(report.GeoMean["general-purpose/"+exps.KindDieHard], "DieHard-general-purpose-x")
	b.ReportMetric(report.GeoMean["alloc-intensive/"+exps.KindGC], "GC-alloc-intensive-x")
	b.ReportMetric(report.GeoMean["general-purpose/"+exps.KindGC], "GC-general-purpose-x")
	for _, row := range report.Rows {
		if row.Benchmark == "300.twolf" {
			b.ReportMetric(row.Normalized[exps.KindDieHard], "DieHard-twolf-x")
		}
	}
}

// --- Figure 5(b): normalized runtime on "Windows" (default heap / DieHard) ---

func BenchmarkFig5bWindows(b *testing.B) {
	var report *exps.OverheadReport
	for i := 0; i < b.N; i++ {
		r, err := exps.RunOverhead(exps.PlatformWindows, 1, 0, 0xb0b0, 1)
		if err != nil {
			b.Fatal(err)
		}
		report = r
	}
	b.ReportMetric(report.GeoMean["alloc-intensive/"+exps.KindDieHard], "DieHard-alloc-intensive-x")
	faster := 0.0
	for _, row := range report.Rows {
		if row.Normalized[exps.KindDieHard] < 1.0 {
			faster++
		}
	}
	b.ReportMetric(faster, "benchmarks-faster-than-default")
}

// --- Table 1: error-handling matrix ---

func BenchmarkTable1ErrorMatrix(b *testing.B) {
	var correct, abort float64
	for i := 0; i < b.N; i++ {
		table, err := exps.RunErrorTable(1)
		if err != nil {
			b.Fatal(err)
		}
		correct, abort = 0, 0
		for _, row := range table.Cell {
			if row["DieHard"] == exps.OutcomeCorrect {
				correct++
			}
			if row["DieHard"] == exps.OutcomeAbort {
				abort++
			}
		}
	}
	b.ReportMetric(correct, "DieHard-correct-rows")
	b.ReportMetric(abort, "DieHard-abort-rows")
}

// --- §7.3.1: fault injection ---

func BenchmarkFaultInjectionDangling(b *testing.B) {
	var libcCorrect, dhCorrect float64
	for i := 0; i < b.N; i++ {
		l, err := exps.RunFaultInjection("espresso", exps.KindMalloc, exps.InjectDangling, 10, 1, 16<<20, 1)
		if err != nil {
			b.Fatal(err)
		}
		d, err := exps.RunFaultInjection("espresso", exps.KindDieHard, exps.InjectDangling, 10, 1, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		libcCorrect, dhCorrect = float64(l.Correct), float64(d.Correct)
	}
	b.ReportMetric(libcCorrect, "libc-correct-of-10")
	b.ReportMetric(dhCorrect, "DieHard-correct-of-10")
}

func BenchmarkFaultInjectionOverflow(b *testing.B) {
	var libcCorrect, dhCorrect float64
	for i := 0; i < b.N; i++ {
		l, err := exps.RunFaultInjection("espresso", exps.KindMalloc, exps.InjectOverflow, 10, 3, 16<<20, 1)
		if err != nil {
			b.Fatal(err)
		}
		d, err := exps.RunFaultInjection("espresso", exps.KindDieHard, exps.InjectOverflow, 10, 3, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		libcCorrect, dhCorrect = float64(l.Correct), float64(d.Correct)
	}
	b.ReportMetric(libcCorrect, "libc-correct-of-10")
	b.ReportMetric(dhCorrect, "DieHard-correct-of-10")
}

// --- §7.3: Squid real fault ---

func BenchmarkSquidRealFault(b *testing.B) {
	var dhSurvived, libcSurvived float64
	for i := 0; i < b.N; i++ {
		results, err := exps.RunSquidExperiment(
			[]string{exps.KindMalloc, exps.KindDieHard}, 5, 900, 24<<20, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Allocator == exps.KindDieHard {
				dhSurvived = float64(r.Survived)
			} else {
				libcSurvived = float64(r.Survived)
			}
		}
	}
	b.ReportMetric(libcSurvived, "libc-survived-of-5")
	b.ReportMetric(dhSurvived, "DieHard-survived-of-5")
}

// --- §7.2.3: replicated scaling ---

func BenchmarkReplicatedScaling16(b *testing.B) {
	var relative float64
	for i := 0; i < b.N; i++ {
		// workers=1 so the two sweep points don't co-schedule and the
		// wall ratio stays a scaling measurement.
		points, err := exps.RunReplicatedScaling("espresso", []int{1, 16}, 1, 12<<20, 0xca1e, 1)
		if err != nil {
			b.Fatal(err)
		}
		relative = points[1].RelativeToOne
	}
	b.ReportMetric(relative, "16-replicas-vs-1-x")
}

// --- §4.2: expected probe count ---

func BenchmarkMallocProbes(b *testing.B) {
	h, err := core.New(core.Options{HeapSize: 48 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Fill the 64-byte class to its threshold, then measure steady-state
	// pairs, as §4.2's bound describes.
	_, maxInUse := h.ClassSlots(core.ClassFor(64))
	ptrs := make([]heap.Ptr, maxInUse)
	for i := range ptrs {
		p, err := h.Malloc(64)
		if err != nil {
			b.Fatal(err)
		}
		ptrs[i] = p
	}
	r := rng.NewSeeded(2)
	before := h.Stats().Probes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := r.Intn(len(ptrs))
		_ = h.Free(ptrs[j])
		p, err := h.Malloc(64)
		if err != nil {
			b.Fatal(err)
		}
		ptrs[j] = p
	}
	b.StopTimer()
	b.ReportMetric(float64(h.Stats().Probes-before)/float64(b.N), "probes/alloc")
}

// --- Ablation: heap expansion factor M (space vs safety) ---

func BenchmarkAblationMSweep(b *testing.B) {
	for _, m := range []float64{2, 4, 8} {
		b.Run(map[float64]string{2: "M2", 4: "M4", 8: "M8"}[m], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h, err := core.New(core.Options{HeapSize: 24 << 20, M: m, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 1000; j++ {
					p, err := h.Malloc(64)
					if err != nil {
						b.Fatal(err)
					}
					if err := h.Free(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			// Larger M: better masking odds, fewer usable slots.
			b.ReportMetric(analysis.OverflowMaskProb(1/m, 1, 1), "P(mask-overflow)")
			b.ReportMetric(1/m, "usable-fraction")
		})
	}
}

// --- Ablation: adaptive region growth (§9 future work) ---

func BenchmarkAblationAdaptive(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := "static"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var reserved float64
			for i := 0; i < b.N; i++ {
				h, err := core.New(core.Options{HeapSize: 96 << 20, Adaptive: adaptive, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 2000; j++ {
					if _, err := h.Malloc(64); err != nil {
						b.Fatal(err)
					}
				}
				reserved = float64(h.Mem().Stats().PagesMapped) * 4096
			}
			b.ReportMetric(reserved/(1<<20), "reserved-MB")
		})
	}
}

// --- Ablation: checked libc interception (§4.4) on/off ---

func BenchmarkAblationCheckedStrcpy(b *testing.B) {
	h, err := core.New(core.Options{HeapSize: 24 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src, _ := h.Malloc(256)
	dst, _ := h.Malloc(256)
	if err := libc.WriteString(h.Mem(), src, strings.Repeat("x", 200)); err != nil {
		b.Fatal(err)
	}
	b.Run("unchecked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := libc.Strcpy(h.Mem(), dst, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := libc.SafeStrcpy(h, h.Mem(), dst, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: size-class segregation vs one random region ---
//
// DieHard restricts each size class to its own region precisely to
// avoid the external fragmentation of scattering small objects across
// the whole heap (§4.1). The ablation compares pages touched by a mixed
// workload under segregated placement (the real allocator) against a
// model that places the same objects at random offsets in one region.

func BenchmarkAblationSegregatedRegions(b *testing.B) {
	// 16-byte objects filling a quarter of their class's capacity on a
	// 12 MB heap (1 MB per class): segregation confines them to one
	// 1 MB partition; random placement over the whole heap would
	// scatter them across nearly every page of all twelve megabytes.
	const heapSize = 12 << 20
	const objSize = 16
	count := (heapSize / 12 / objSize) / 4
	b.Run("segregated", func(b *testing.B) {
		var touched float64
		for i := 0; i < b.N; i++ {
			h, err := core.New(core.Options{HeapSize: heapSize, Seed: uint64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < count; j++ {
				p, err := h.Malloc(objSize)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.Mem().Store8(p, 1); err != nil {
					b.Fatal(err)
				}
			}
			touched = float64(h.Mem().Stats().PagesDirty)
		}
		b.ReportMetric(touched, "pages-touched")
	})
	b.Run("single-region", func(b *testing.B) {
		// Model: the same objects placed uniformly at random across one
		// region spanning the whole heap; count distinct pages touched.
		var touched float64
		for i := 0; i < b.N; i++ {
			r := rng.NewSeeded(uint64(i) + 1)
			pages := make(map[uint64]bool)
			for j := 0; j < count; j++ {
				off := r.Uintn(heapSize)
				pages[off/4096] = true
			}
			touched = float64(len(pages))
		}
		b.ReportMetric(touched, "pages-touched")
	})
}
