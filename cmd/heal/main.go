// Command heal runs the self-healing supervisor (internal/heal) under
// the standard planned fault schedule and prints the grade — MTBF with
// healing off vs on:
//
//	go run ./cmd/heal
//
// Two pairs are graded: the supervisor's own restart-cycle campaign
// (cycles between invariant failures, unhealed vs healed) and the
// serve-embedded fault soak (sessions between token corruptions,
// unmitigated vs mitigated by the countermeasures a healed supervisor
// converged to). Both are deterministic. With -smoke it instead runs a
// tiny schedule and asserts the healed MTBF is at least 2x the unhealed
// baseline with both culprits convicted exactly.
package main

import (
	"flag"
	"fmt"
	"os"

	"diehard/internal/heal"
	"diehard/internal/obs"
	"diehard/internal/serve"
)

// schedule is the standard planted fault schedule: site 7 overflows 24
// bytes past its 48-byte object every 3rd cycle, site 29 is freed
// prematurely and written through the stale pointer every 4th.
func schedule() heal.Schedule {
	return heal.Schedule{
		Sites:        48,
		ObjectSize:   48,
		OverflowSite: 7, OverflowReach: 24, OverflowEvery: 3,
		DanglingSite: 29, DanglingEvery: 4,
	}
}

func main() {
	var (
		smoke   = flag.Bool("smoke", false, "run the tiny CI schedule (healed MTBF >= 2x unhealed, exact culprits)")
		cycles  = flag.Int("cycles", 960, "supervisor cycles per run")
		withObs = flag.Bool("obs", false, "attach the telemetry plane to the healed run and dump its metric tree and trace tail as JSON to stdout")
	)
	flag.Parse()

	var (
		reg *obs.Registry
		rec *obs.Recorder
	)
	if *withObs {
		reg = obs.NewRegistry()
		rec = obs.NewRecorder(4096)
	}

	if *smoke {
		runSmoke(reg, rec)
		return
	}

	cfg := heal.Config{
		Seed:        0x4EA1,
		Schedule:    schedule(),
		Cycles:      *cycles,
		EpochCycles: 80,
	}
	base, err := heal.Run(cfg)
	if err != nil {
		fatal(err)
	}
	cfg.Heal = true
	cfg.Obs, cfg.Trace = reg, rec
	healed, err := heal.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("supervisor MTBF  unhealed %8.1f cycles (%d failures)  healed %8.1f cycles (%d failures)  ratio %.1fx\n",
		base.MTBF, base.Failures, healed.MTBF, healed.Failures, healed.MTBF/base.MTBF)
	fmt.Printf("timeline: onset cycle %d, mitigated cycle %d, %d restarts between (live countermeasures)\n",
		healed.OnsetCycle, healed.MitigatedCycle, healed.RestartsOnsetToMitigation)

	// The serve embedding: the same fault geometry in the open-loop
	// soak's session loop, mitigated by the countermeasures the healed
	// supervisor converged to.
	sch := schedule()
	plan := &serve.FaultPlan{
		ObjectSize:     sch.ObjectSize,
		OverflowObject: 3, OverflowReach: sch.OverflowReach, OverflowEvery: 2,
		DanglingObject: 9, DanglingEvery: 2,
	}
	scfg := serve.Config{
		Shards:   1,
		Workers:  1, // injected writes race any concurrent slot owner by design
		HeapSize: 1 << 20,
		Sessions: 50_000,
		Seed:     0x4EA1,
		Faults:   plan,
	}
	sbase, err := serve.Run(scfg)
	if err != nil {
		fatal(err)
	}
	scfg.Mitigate = mitFromHealed(healed, plan)
	smit, err := serve.Run(scfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serve MTBF       unmitigated %6.1f sessions (%d corruptions)  mitigated %8.1f sessions (%d corruptions)\n",
		sbase.MTBFSessions, sbase.Corruptions, smit.MTBFSessions, smit.Corruptions)

	if reg != nil {
		if err := obs.WriteDump(os.Stdout, reg, rec); err != nil {
			fatal(err)
		}
	}
}

// mitFromHealed translates the healed run's verdict into the fault
// soak's site space: the supervisor convicted cyclic allocation sites,
// the soak plants the same bug classes at fixed object indices, so the
// pad learned for the overflow culprit moves to the soak's overflow
// object and likewise for the quarantine.
func mitFromHealed(res *heal.Result, plan *serve.FaultPlan) serve.Mitigator {
	pads, quar := map[int]int{}, map[int]bool{}
	if res.Overflow != nil {
		if pad := res.PadTable[res.Overflow.Culprit]; pad > 0 {
			pads[plan.OverflowObject] = pad
		}
	}
	if res.Dangling != nil && len(res.QuarantineSites) > 0 {
		quar[plan.DanglingObject] = true
	}
	return serve.StaticMitigator(pads, quar)
}

// runSmoke is the CI gate: a tiny deterministic schedule must convict
// exactly the planted culprits, apply both countermeasures without a
// restart in between, and at least double the MTBF.
func runSmoke(reg *obs.Registry, rec *obs.Recorder) {
	cfg := heal.Config{
		Seed:        0x4EA1,
		Schedule:    schedule(),
		Cycles:      240,
		EpochCycles: 80,
	}
	base, err := heal.Run(cfg)
	if err != nil {
		fatal(fmt.Errorf("smoke baseline: %w", err))
	}
	cfg.Heal = true
	cfg.Obs, cfg.Trace = reg, rec
	healed, err := heal.Run(cfg)
	if err != nil {
		fatal(fmt.Errorf("smoke healed: %w", err))
	}
	fmt.Printf("smoke MTBF unhealed %.1f (%d failures) -> healed %.1f (%d failures)\n",
		base.MTBF, base.Failures, healed.MTBF, healed.Failures)
	if base.Failures == 0 {
		fatal(fmt.Errorf("smoke: baseline never failed; schedule is not biting"))
	}
	if healed.MTBF < 2*base.MTBF {
		fatal(fmt.Errorf("smoke: healed MTBF %.1f < 2x unhealed %.1f", healed.MTBF, base.MTBF))
	}
	sch := schedule()
	if healed.Overflow == nil || healed.Overflow.Culprit != sch.OverflowSite {
		fatal(fmt.Errorf("smoke: overflow culprit %+v, want site %d", healed.Overflow, sch.OverflowSite))
	}
	if healed.Dangling == nil || healed.Dangling.Culprit != sch.DanglingSite {
		fatal(fmt.Errorf("smoke: dangling culprit %+v, want site %d", healed.Dangling, sch.DanglingSite))
	}
	if healed.RestartsOnsetToMitigation != 0 {
		fatal(fmt.Errorf("smoke: %d restarts between onset and mitigation; countermeasures must be live",
			healed.RestartsOnsetToMitigation))
	}
	if reg != nil {
		for _, m := range []string{"detect.canary_audits", "heal.evidence_windows", "heal.cycle_ns"} {
			if v, ok := reg.Get(m); !ok || v == 0 {
				fatal(fmt.Errorf("smoke obs: metric %s missing or zero (v=%v ok=%v)", m, v, ok))
			}
		}
		evs := rec.Snapshot()
		if len(evs) == 0 {
			fatal(fmt.Errorf("smoke obs: flight recorder captured nothing"))
		}
		seen := map[string]bool{}
		for i, e := range evs {
			if i > 0 && evs[i-1].Seq >= e.Seq {
				fatal(fmt.Errorf("smoke obs: trace out of order at %d", i))
			}
			seen[e.Kind] = true
		}
		for _, k := range []string{"evidence", "barrier", "countermeasure"} {
			if !seen[k] {
				fatal(fmt.Errorf("smoke obs: no %q events in the supervisor trace", k))
			}
		}
		if err := obs.WriteDump(os.Stdout, reg, rec); err != nil {
			fatal(err)
		}
	}
	fmt.Println("heal smoke passed")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "heal: %v\n", err)
	os.Exit(1)
}
