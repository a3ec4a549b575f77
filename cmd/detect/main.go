// Command detect runs the heap-error detection campaign across the
// three policy tiers (DESIGN.md §15): the probabilistic canary engine
// (internal/detect) graded against planned fault injection with
// Exterminator-style cross-layout triage of the overflow culprits, the
// deterministic generation-tag tier on dangling errors, and the
// replicated random-fill divergence vote on uninitialized reads.
//
// Usage:
//
//	detect                          # default campaign (16 trials, 16 layouts)
//	detect -trials 8 -layouts 8     # smaller sweep
//	detect -multipliers 2,4,8       # extra heap expansion factors
//	detect -workers 8               # fan trials out; same table bytes
//	detect -selftest                # tiny run asserting the acceptance bars
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"diehard/internal/exps"
)

func main() {
	var (
		trials   = flag.Int("trials", 0, "trials per cell (0 = default 16; half injected, half clean)")
		layouts  = flag.Int("layouts", 0, "seeded layouts per triaged overflow trial (0 = default 16)")
		mults    = flag.String("multipliers", "", "comma-separated heap multipliers M (default 2,4)")
		workers  = flag.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS); output is identical for any value")
		heapSize = flag.Int("heap", 0, "per-trial heap size in bytes (0 = default 2 MB)")
		seed     = flag.Uint64("seed", 0, "campaign seed (0 = default)")
		selftest = flag.Bool("selftest", false, "run a tiny campaign and fail unless the acceptance bars hold")
	)
	flag.Parse()

	params := exps.DetectParams{
		Trials:   *trials,
		Layouts:  *layouts,
		HeapSize: *heapSize,
		Seed:     *seed,
	}
	if *mults != "" {
		for _, f := range strings.Split(*mults, ",") {
			m, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fatal(fmt.Errorf("bad multiplier %q: %w", f, err))
			}
			params.Multipliers = append(params.Multipliers, m)
		}
	}
	if *selftest {
		params.Trials = 8
		params.Layouts = 8
		params.Multipliers = []float64{2}
	}

	table, err := exps.RunDetectionTable(params, *workers)
	if err != nil {
		fatal(err)
	}

	fmt.Println("# Detection campaign: precision/recall vs planned fault injection, per policy tier")
	fmt.Printf("# %d trials/cell (half injected), triage over %d seeded layouts\n",
		table.Params.Trials, table.Params.Layouts)
	fmt.Printf("%-14s %-10s %-5s %-5s %-5s %-10s %-8s %-10s %-10s %s\n",
		"policy", "error", "M", "inj", "det", "precision", "recall", "triage", "ovflw-len", "hash")
	for _, c := range table.Cells {
		triage := "-"
		if c.TriageTrials > 0 {
			triage = fmt.Sprintf("%d/%d", c.TriageLocalized, c.TriageTrials)
		}
		length := "-"
		if c.MeanOverflowLen > 0 {
			length = fmt.Sprintf("%.1fB", c.MeanOverflowLen)
		}
		fmt.Printf("%-14s %-10s %-5g %-5d %-5d %-10.3f %-8.3f %-10s %-10s %016x\n",
			c.Policy, c.Error, c.Multiplier, c.Injected, c.TruePos+c.FalsePos,
			c.Precision, c.Recall, triage, length, c.OutputHash)
	}

	if *selftest {
		failed := false
		report := func(format string, args ...any) {
			failed = true
			fmt.Fprintf(os.Stderr, "selftest: "+format+"\n", args...)
		}
		for _, c := range table.Cells {
			switch c.Policy {
			case exps.PolicyGenTag:
				// The deterministic temporal tier: exact identities, not
				// thresholds — any miss is a protocol bug.
				if c.Precision != 1.0 || c.Recall != 1.0 {
					report("gentag %s precision %.3f recall %.3f; want exactly 1.0",
						c.Error, c.Precision, c.Recall)
				}
				continue
			case exps.PolicyReplicated:
				if c.Precision != 1.0 || c.Recall != 1.0 {
					report("replicated %s precision %.3f recall %.3f; want 1.0",
						c.Error, c.Precision, c.Recall)
				}
				continue
			}
			if c.Error == exps.DetectOverflow {
				if c.Precision < 0.99 {
					report("overflow precision %.3f < 0.99", c.Precision)
				}
				if c.Recall < 0.9 {
					report("overflow recall %.3f < 0.9", c.Recall)
				}
				if c.TriageTrials == 0 {
					report("no overflow trials reached triage")
				} else if rate := float64(c.TriageLocalized) / float64(c.TriageTrials); rate < 0.9 {
					report("triage localized only %.3f of detected overflow trials", rate)
				}
			}
			if c.Error == exps.DetectUninit && c.Recall < 0.99 {
				report("uninit recall %.3f < 0.99", c.Recall)
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("selftest ok")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "detect: %v\n", err)
	os.Exit(1)
}
