// Package exps is the experiment harness: every table and figure of the
// paper's evaluation (§6-§7) has an entry point here that regenerates
// its data on the simulated substrate — the error-tolerance grid
// (RunErrorTable, Table 1/Figure 6), targeted fault injection
// (RunFaultInjection, §7.1), the Squid leak scenario
// (RunSquidExperiment), the Figure 5 runtime grid (RunOverhead), and
// the §7.2.3 replicated-scaling sweep (RunReplicatedScaling). The cmd/
// executables and the repository-level benchmarks are thin wrappers
// over this package.
//
// Every campaign is a fixed list of independent trials fanned across a
// deterministic work-stealing pool (MapTrials): each trial's randomness
// derives from the campaign seed and its trial index alone (DeriveSeed),
// each trial owns its allocator and space, and results are reduced in
// trial-index order — so every Run* function takes a workers parameter
// and produces byte-identical results for any value of it (DESIGN.md
// §7). Wall-clock fields are the exception: they are host measurements
// and co-schedule when workers > 1.
package exps

import (
	"fmt"
	"math"

	"diehard/internal/core"
	"diehard/internal/gcsim"
	"diehard/internal/heap"
	"diehard/internal/leaalloc"
	"diehard/internal/winalloc"
)

// Allocator kinds available to experiments.
const (
	KindDieHard = "DieHard"
	KindMalloc  = "malloc" // GNU libc / Lea baseline
	KindGC      = "GC"     // Boehm-Demers-Weiser baseline
	KindWin     = "win"    // Windows XP default heap baseline
)

// AllocConfig selects and parameterizes an allocator for an experiment.
type AllocConfig struct {
	Kind      string
	HeapSize  int
	Seed      uint64  // DieHard only
	M         float64 // DieHard only
	EnableTLB bool
}

// NewAllocator builds an allocator for experiments.
func NewAllocator(cfg AllocConfig) (heap.Allocator, error) {
	switch cfg.Kind {
	case KindDieHard:
		return core.New(core.Options{
			HeapSize:  cfg.HeapSize,
			Seed:      cfg.Seed,
			M:         cfg.M,
			EnableTLB: cfg.EnableTLB,
		})
	case KindMalloc:
		return leaalloc.New(leaalloc.Options{HeapSize: cfg.HeapSize, EnableTLB: cfg.EnableTLB})
	case KindGC:
		return gcsim.New(gcsim.Options{HeapSize: cfg.HeapSize, EnableTLB: cfg.EnableTLB})
	case KindWin:
		return winalloc.New(winalloc.Options{HeapSize: cfg.HeapSize, EnableTLB: cfg.EnableTLB})
	}
	return nil, fmt.Errorf("exps: unknown allocator kind %q", cfg.Kind)
}

// GeoMean returns the geometric mean of xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
