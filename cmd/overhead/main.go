// Command overhead reproduces Figure 5 (normalized runtime across the
// benchmark suites) and the §7.2.3 replicated-scaling measurement.
//
// Usage:
//
//	overhead -platform linux     # Figure 5(a): malloc vs GC vs DieHard
//	overhead -platform windows   # Figure 5(b): default heap vs DieHard
//	overhead -replicas 16 -app espresso   # §7.2.3 scaling
//
// Any other -platform exits 1 before a cell runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"diehard/internal/apps"
	"diehard/internal/exps"
)

func main() {
	var (
		platform = flag.String("platform", "linux", "figure 5 platform: linux or windows")
		scale    = flag.Int("scale", 1, "input scale factor")
		seed     = flag.Uint64("seed", 0x5eed, "DieHard seed")
		replicas = flag.Int("replicas", 0, "run the replicated-scaling experiment at this count instead")
		appName  = flag.String("app", "espresso", "application for the scaling experiment")
		workers  = flag.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS for figure 5, 1 for scaling); cycle figures and voted outputs are identical for any value")
	)
	flag.Parse()

	if *replicas > 0 {
		// Sweep points fan out across -workers goroutines; the voted
		// outputs are identical for any worker count, but wall ratios
		// co-schedule, so wall measurements want -workers 1 (the
		// default here, unlike the Figure 5 grid).
		w := *workers
		if w == 0 {
			w = 1
		}
		points, err := exps.RunReplicatedScaling(*appName, []int{1, *replicas}, *scale, 0, *seed, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "overhead: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# §7.2.3 replicated scaling: %s (sweep workers=%d)\n", *appName, w)
		fmt.Println("# replicas wall survivors agreed relative-to-one output-hash")
		for _, p := range points {
			fmt.Printf("%-9d %-12v %-9d %-6v %-15s %#016x\n",
				p.Replicas, p.Wall.Round(1e6), p.Survivors, p.Agreed,
				fmt.Sprintf("%.2fx", p.RelativeToOne), p.OutputHash)
		}
		return
	}

	report, err := exps.RunOverhead(exps.Platform(*platform), *scale, 0, *seed, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "overhead: %v\n", err)
		os.Exit(1)
	}
	kinds := exps.Platform(*platform).Allocators()
	fmt.Printf("# Figure 5 (%s): normalized runtime (baseline = %s)\n", *platform, kinds[0])
	fmt.Printf("%-14s %-16s", "benchmark", "suite")
	for _, k := range kinds {
		fmt.Printf(" %10s", k)
	}
	fmt.Println()
	for _, row := range report.Rows {
		fmt.Printf("%-14s %-16s", row.Benchmark, row.Kind)
		for _, k := range kinds {
			fmt.Printf(" %10.3f", row.Normalized[k])
		}
		fmt.Println()
	}
	for _, suite := range []string{"alloc-intensive", "general-purpose"} {
		fmt.Printf("%-14s %-16s", "GEOMEAN", suite)
		for _, k := range kinds {
			fmt.Printf(" %10.3f", report.GeoMean[suite+"/"+k])
		}
		fmt.Println()
	}
	_ = apps.Registry
}
