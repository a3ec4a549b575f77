package exps

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"diehard/internal/apps"
	"diehard/internal/heap"
	"diehard/internal/replicate"
)

// Platform selects a Figure 5 configuration.
type Platform string

const (
	// PlatformLinux compares the GNU-libc baseline, the BDW collector,
	// and DieHard (Figure 5(a)).
	PlatformLinux Platform = "linux"
	// PlatformWindows compares the Windows XP default heap and DieHard
	// (Figure 5(b)).
	PlatformWindows Platform = "windows"
)

// ErrUnknownPlatform is returned by RunOverhead for a Platform other
// than PlatformLinux and PlatformWindows.
var ErrUnknownPlatform = errors.New("exps: unknown Figure 5 platform")

// Allocators returns the allocator kinds of a platform, nil for an
// unknown one; index 0 is the normalization baseline.
func (p Platform) Allocators() []string {
	switch p {
	case PlatformLinux:
		return []string{KindMalloc, KindGC, KindDieHard}
	case PlatformWindows:
		return []string{KindWin, KindDieHard}
	}
	return nil
}

// OverheadRow is one benchmark's result across allocators.
type OverheadRow struct {
	Benchmark  string
	Kind       apps.Kind
	Cycles     map[string]uint64  // modeled cycles per allocator
	Normalized map[string]float64 // cycles / baseline cycles
	WallTime   map[string]time.Duration
	TLBMisses  map[string]uint64
}

// OverheadReport is the full Figure 5 dataset.
type OverheadReport struct {
	Platform Platform
	Rows     []OverheadRow
	// GeoMean maps "<kind>/<allocator>" (kind = alloc-intensive or
	// general-purpose) to the geometric-mean normalized runtime.
	GeoMean map[string]float64
}

// RunOverhead executes the Figure 5 experiment: every benchmark on every
// allocator of the platform, under the deterministic cycle model
// (DESIGN.md §6), with the simulated TLB enabled. The paper's default
// configuration is used for DieHard (384 MB heap, M = 2) and the same
// arena budget for the baselines.
//
// The (benchmark, allocator) grid fans out across `workers` goroutines;
// each run owns its allocator and space, so the modeled cycle counts —
// and therefore the normalized figures — are identical for any worker
// count. Wall times remain what they are: host measurements, noisy under
// co-scheduling.
func RunOverhead(platform Platform, scale, heapSize int, seed uint64, workers int) (*OverheadReport, error) {
	kinds := platform.Allocators()
	if kinds == nil {
		return nil, fmt.Errorf("%w %q (want %q or %q)", ErrUnknownPlatform, platform, PlatformLinux, PlatformWindows)
	}
	if heapSize == 0 {
		heapSize = 384 << 20
	}
	report := &OverheadReport{Platform: platform, GeoMean: make(map[string]float64)}
	baseline := kinds[0]
	registry := apps.Registry()

	// One input per app, shared read-only by its cells across workers.
	inputs := make([][]byte, len(registry))
	for a, app := range registry {
		inputs[a] = app.Input(scale)
	}

	type cellResult struct {
		cycles    uint64
		wall      time.Duration
		tlbMisses uint64
	}
	cells, err := MapTrials(len(registry)*len(kinds), workers, func(i int) (cellResult, error) {
		app := registry[i/len(kinds)]
		kind := kinds[i%len(kinds)]
		alloc, err := NewAllocator(AllocConfig{
			Kind: kind, HeapSize: heapSize, Seed: seed, EnableTLB: true,
		})
		if err != nil {
			return cellResult{}, err
		}
		// The allocator owns its space: closing it after the cycle
		// count and the TLB read below closes the heap.
		defer alloc.Mem().Close()
		var out bytes.Buffer
		rt := &apps.Runtime{Alloc: alloc, Mem: alloc.Mem(), Input: inputs[i/len(kinds)], Out: &out}
		start := time.Now()
		if err := app.Run(rt); err != nil {
			return cellResult{}, fmt.Errorf("%s on %s: %w", app.Name, kind, err)
		}
		return cellResult{
			cycles:    heap.Cycles(alloc.Mem(), alloc.Stats()),
			wall:      time.Since(start),
			tlbMisses: alloc.Mem().Stats().TLBMisses,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	for a, app := range registry {
		row := OverheadRow{
			Benchmark:  app.Name,
			Kind:       app.Kind,
			Cycles:     make(map[string]uint64),
			Normalized: make(map[string]float64),
			WallTime:   make(map[string]time.Duration),
			TLBMisses:  make(map[string]uint64),
		}
		for k, kind := range kinds {
			cell := cells[a*len(kinds)+k]
			row.Cycles[kind] = cell.cycles
			row.WallTime[kind] = cell.wall
			row.TLBMisses[kind] = cell.tlbMisses
		}
		for _, kind := range kinds {
			row.Normalized[kind] = float64(row.Cycles[kind]) / float64(row.Cycles[baseline])
		}
		report.Rows = append(report.Rows, row)
	}

	for _, kind := range kinds {
		var ai, gp []float64
		for _, row := range report.Rows {
			if row.Kind == apps.AllocIntensive {
				ai = append(ai, row.Normalized[kind])
			} else {
				gp = append(gp, row.Normalized[kind])
			}
		}
		report.GeoMean["alloc-intensive/"+kind] = GeoMean(ai)
		report.GeoMean["general-purpose/"+kind] = GeoMean(gp)
	}
	return report, nil
}

// ScalingPoint is one replica-count measurement of the §7.2.3
// experiment.
type ScalingPoint struct {
	Replicas  int
	Wall      time.Duration
	Survivors int
	Agreed    bool
	// Seed is the replicate master seed of this sweep point, derived
	// from the campaign seed and the point index (DeriveSeed), so any
	// point is replayable on its own.
	Seed uint64
	// OutputHash is 64-bit FNV-1a over the point's committed (voted)
	// output: the deterministic fingerprint the workers=1-vs-N
	// determinism tests compare.
	OutputHash uint64
	// RelativeToOne is wall time divided by the first point's wall time
	// (campaigns conventionally put replicas=1 first).
	RelativeToOne float64
}

// RunReplicatedScaling reproduces §7.2.3: run an application under the
// replicated runtime at each replica count (the paper: 16 replicas on a
// 16-way server, about +50% over one replica) and report wall-clock
// ratios. Replicas execute on separate goroutines, so the measurement
// reflects the host's available parallelism, as the original did.
//
// The sweep points fan out across `workers` goroutines on the campaign
// engine; each point's replicate seed derives from the campaign seed and
// its index alone, so Survivors, Agreed, and OutputHash are identical
// for any worker count. Wall times (and RelativeToOne) are host
// measurements: with workers > 1 the points co-schedule and their wall
// ratios lose meaning, so measure wall with workers = 1.
//
// lindsay is rejected: its uninitialized read makes replicas disagree,
// which is exactly why the paper excludes it (§7.2.3).
func RunReplicatedScaling(appName string, replicaCounts []int, scale, heapSize int, seed uint64, workers int) ([]ScalingPoint, error) {
	if appName == "lindsay" {
		return nil, fmt.Errorf("exps: lindsay cannot run replicated (uninitialized read); the paper excludes it too")
	}
	app, ok := apps.Get(appName)
	if !ok {
		return nil, fmt.Errorf("exps: unknown app %q", appName)
	}
	input := app.Input(scale)
	prog := func(ctx *replicate.Context) error {
		rt := &apps.Runtime{Alloc: ctx.Alloc, Mem: ctx.Mem, Input: ctx.Input, Out: ctx.Out}
		return app.Run(rt)
	}
	points, err := MapTrials(len(replicaCounts), workers, func(i int) (ScalingPoint, error) {
		pointSeed := DeriveSeed(seed, i)
		start := time.Now()
		res, err := replicate.Run(prog, input, replicate.Options{
			Replicas: replicaCounts[i],
			HeapSize: heapSize,
			Seed:     pointSeed,
		})
		if err != nil {
			return ScalingPoint{}, err
		}
		h := fnv.New64a()
		h.Write(res.Output)
		return ScalingPoint{
			Replicas:   replicaCounts[i],
			Wall:       time.Since(start),
			Survivors:  res.Survivors,
			Agreed:     res.Agreed,
			Seed:       pointSeed,
			OutputHash: h.Sum64(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range points {
		points[i].RelativeToOne = float64(points[i].Wall) / float64(points[0].Wall)
	}
	return points, nil
}
