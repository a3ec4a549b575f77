// Command faultinject reproduces the §7.3 error-avoidance experiments:
// dangling-pointer and buffer-overflow injection into espresso
// (§7.3.1), and the Squid web-cache overflow ("Real Faults").
//
// Usage:
//
//	faultinject -error dangling   # 50% of objects freed 10 allocations early
//	faultinject -error overflow   # 1% of requests >= 32B under-allocated by 4
//	faultinject -error squid      # ill-formed input against the buggy cache
package main

import (
	"flag"
	"fmt"
	"os"

	"diehard/internal/exps"
)

func main() {
	var (
		kind    = flag.String("error", "dangling", "experiment: dangling, overflow, squid")
		trials  = flag.Int("trials", 10, "runs per allocator")
		app     = flag.String("app", "espresso", "target application for injection")
		scale   = flag.Int("scale", 3, "input scale factor")
		workers = flag.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS); results are identical for any value")
	)
	flag.Parse()

	switch *kind {
	case "dangling", "overflow":
		fmt.Printf("# §7.3.1 %s injection into %s (%d trials)\n", *kind, *app, *trials)
		if *kind == "dangling" {
			fmt.Println("# frequency 50%, distance 10 (paper settings)")
		} else {
			fmt.Println("# rate 1%, requests >= 32 bytes under-allocated by 4 (paper settings)")
		}
		fmt.Println("# allocator correct crashed wrong-output hung injected")
		for _, alloc := range []string{exps.KindMalloc, exps.KindDieHard} {
			heapSize := 0
			if alloc == exps.KindMalloc {
				heapSize = 64 << 20
			}
			res, err := exps.RunFaultInjection(*app, alloc, exps.InjectionKind(*kind), *trials, *scale, heapSize, *workers)
			if err != nil {
				fmt.Fprintf(os.Stderr, "faultinject: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%-10s %-7d %-7d %-12d %-5d %d\n",
				alloc, res.Correct, res.Crashed, res.WrongOutput, res.Hung, res.Injected)
		}
	case "squid":
		fmt.Printf("# §7.3 Real Faults: buggy web cache on ill-formed input (%d trials)\n", *trials)
		fmt.Println("# allocator survived crashed")
		results, err := exps.RunSquidExperiment(
			[]string{exps.KindMalloc, exps.KindGC, exps.KindDieHard}, *trials, 900, 24<<20, *workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultinject: %v\n", err)
			os.Exit(1)
		}
		for _, r := range results {
			fmt.Printf("%-10s %-8d %d\n", r.Allocator, r.Survived, r.Crashed)
		}
	default:
		fmt.Fprintf(os.Stderr, "faultinject: unknown experiment %q\n", *kind)
		os.Exit(2)
	}
}
