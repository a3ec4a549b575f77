// Fault-injection demo (§7.3.1): inject memory errors into an unaltered
// application and compare the default allocator with DieHard.
//
// The espresso logic minimizer runs ten times under each allocator with
// each of the paper's two fault loads:
//
//   - dangling pointers: half of all objects freed ten allocations too
//     early (frequency 50%, distance 10);
//   - buffer overflows: 1% of requests of 32 bytes or more
//     under-allocated by 4 bytes.
//
// The paper's result: the default allocator never completes correctly
// under the dangling load and crashes or hangs under the overflow load,
// while DieHard runs correctly 9/10 and 10/10 times respectively.
//
//	go run ./examples/faultinjection
package main

import (
	"fmt"
	"log"

	"diehard/internal/exps"
)

func main() {
	const trials = 10
	for _, kind := range []exps.InjectionKind{exps.InjectDangling, exps.InjectOverflow} {
		fmt.Printf("=== %s injection into espresso (%d trials) ===\n", kind, trials)
		for _, alloc := range []string{exps.KindMalloc, exps.KindDieHard} {
			heapSize := 0 // DieHard: paper default 384 MB
			if alloc == exps.KindMalloc {
				heapSize = 64 << 20
			}
			res, err := exps.RunFaultInjection("espresso", alloc, kind, trials, 3, heapSize, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s correct %2d/%d   crashed %d, wrong output %d, hung %d (injected %d faults)\n",
				alloc, res.Correct, res.Trials, res.Crashed, res.WrongOutput, res.Hung, res.Injected)
		}
		fmt.Println()
	}
	fmt.Println("paper §7.3.1: dangling — default fails all runs, DieHard correct 9/10;")
	fmt.Println("overflow — default crashes 9/10 and hangs 1/10, DieHard correct 10/10.")
}
