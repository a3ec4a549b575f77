package heal

import (
	"errors"
	"reflect"
	"testing"

	"diehard/internal/detect"
	"diehard/internal/obs"
	"diehard/internal/vmem"
)

// testSchedule is the planned fault schedule the regression battery
// pins: site 7 overflows 24 bytes past its 48-byte object every 3rd
// cycle (8 bytes escape the 16-byte slack into the adjacent slot), and
// site 29 is freed prematurely and written through a stale pointer
// every 4th cycle.
func testSchedule() Schedule {
	return Schedule{
		Sites:        48,
		ObjectSize:   48,
		OverflowSite: 7, OverflowReach: 24, OverflowEvery: 3,
		DanglingSite: 29, DanglingEvery: 4,
	}
}

func testConfig(heal bool) Config {
	return Config{
		Seed:        0xC0FFEE,
		Schedule:    testSchedule(),
		Cycles:      240,
		EpochCycles: 80,
		Heal:        heal,
	}
}

// TestHealConvergesToGroundTruth is the deterministic fault-schedule
// regression: the supervisor must convict exactly the two planted
// culprit sites, apply both countermeasures live (zero restarts between
// onset and mitigation), and stop the failures.
func TestHealConvergesToGroundTruth(t *testing.T) {
	res, err := Run(testConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	sch := testSchedule()
	if res.Overflow.Culprit != sch.OverflowSite {
		t.Errorf("overflow culprit = %d, want ground truth %d (votes %v)",
			res.Overflow.Culprit, sch.OverflowSite, res.Overflow.Votes)
	}
	if res.Dangling.Culprit != sch.DanglingSite {
		t.Errorf("dangling culprit = %d, want ground truth %d (votes %v)",
			res.Dangling.Culprit, sch.DanglingSite, res.Dangling.Votes)
	}
	if res.MitigatedCycle < 0 {
		t.Fatal("no countermeasure was ever applied")
	}
	if res.OnsetCycle < 0 || res.MitigatedCycle < res.OnsetCycle {
		t.Errorf("timeline out of order: onset %d, mitigated %d", res.OnsetCycle, res.MitigatedCycle)
	}
	if res.RestartsOnsetToMitigation != 0 {
		t.Errorf("%d restarts between fault onset and mitigation; countermeasures must be live",
			res.RestartsOnsetToMitigation)
	}
	if pad := res.PadTable[sch.OverflowSite]; pad < sch.OverflowReach {
		t.Errorf("pad %dB cannot contain the %dB overflow reach", pad, sch.OverflowReach)
	}
	if len(res.QuarantineSites) != 1 || res.QuarantineSites[0] != sch.DanglingSite {
		t.Errorf("quarantine sites = %v, want exactly [%d]", res.QuarantineSites, sch.DanglingSite)
	}
	if res.Quarantined == 0 {
		t.Error("quarantine convicted the dangling site but never held a free")
	}
	// Convergence bound: both verdicts within N = confidenceBar * max
	// injection period cycles of onset, with slack for barrier latency.
	every, _ := heapCheckCadence(sch)
	n := confidenceBar*4*sch.DanglingEvery + every/sch.Sites
	var lastApply int
	for _, ev := range res.Timeline {
		if ev.Kind == "pad" || ev.Kind == "quarantine" {
			lastApply = ev.Cycle
		}
	}
	if lastApply-res.OnsetCycle > n {
		t.Errorf("mitigation took %d cycles after onset, want <= %d", lastApply-res.OnsetCycle, n)
	}
}

// TestHealMTBF is the grading property: under the same planned schedule
// and seeds, the healed service must survive at least 5x longer between
// invariant failures than the unhealed baseline.
func TestHealMTBF(t *testing.T) {
	base, err := Run(testConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	healed, err := Run(testConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if base.Failures == 0 {
		t.Fatal("unhealed baseline never failed; the schedule is not exercising faults")
	}
	t.Logf("MTBF unhealed %.1f (%d failures) -> healed %.1f (%d failures)",
		base.MTBF, base.Failures, healed.MTBF, healed.Failures)
	if healed.MTBF < 5*base.MTBF {
		t.Errorf("healed MTBF %.1f < 5x unhealed %.1f", healed.MTBF, base.MTBF)
	}
	// The countermeasures, not luck, must explain the improvement: after
	// the last mitigation both injections keep firing every cycle window,
	// so a healed service that still fails is not healed.
	if healed.Failures > base.Failures/3 {
		t.Errorf("healed run still failed %d times (baseline %d)", healed.Failures, base.Failures)
	}
}

// TestHealCampaignMergesReplicaWindows holds the campaign verdicts to
// the replicas' own tallies: the merged accumulator counts every window
// each replica detected and every vote each replica cast, so the strict
// majority is judged over all the campaign's windows.
func TestHealCampaignMergesReplicaWindows(t *testing.T) {
	for _, healOn := range []bool{true, false} {
		cfg := testConfig(healOn)
		cfg.Cycles = 120
		cr, err := RunCampaign(cfg, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []detect.Kind{detect.KindOverflow, detect.KindDangling} {
			merged := cr.Overflow
			if kind == detect.KindDangling {
				merged = cr.Dangling
			}
			detected, votes := 0, map[int]int{}
			for _, r := range cr.Replicas {
				v := r.Overflow
				if kind == detect.KindDangling {
					v = r.Dangling
				}
				detected += v.Detected
				for site, n := range v.Votes {
					votes[site] += n
				}
			}
			if merged.Detected != detected || !reflect.DeepEqual(merged.Votes, votes) {
				t.Errorf("Heal=%v %s: merged %d windows, votes %v; replicas sum to %d windows, votes %v",
					healOn, kind, merged.Detected, merged.Votes, detected, votes)
			}
		}
	}
}

// TestHealCampaignDeterministicAcrossWorkers pins the replicated
// campaign's w=1 vs w=8 byte-identity: same seeds, same replica
// results, same merged verdicts, same hash. The hashes with Heal on and
// off are also pinned to recorded values, so a change that moves every
// replica alike — a different pad, hold, or free — fails here too.
func TestHealCampaignDeterministicAcrossWorkers(t *testing.T) {
	for healOn, want := range map[bool]uint64{true: 0xd56313e72c95eb99, false: 0x7dbc585097952881} {
		cfg := testConfig(healOn)
		cfg.Cycles = 120
		got, err := RunCampaign(cfg, 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.VerdictHash != want {
			t.Errorf("Heal=%v: campaign verdict hash %#x, recorded %#x", healOn, got.VerdictHash, want)
		}
	}
	cfg := testConfig(true)
	cfg.Cycles = 120
	one, err := RunCampaign(cfg, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunCampaign(cfg, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if one.VerdictHash != eight.VerdictHash {
		t.Fatalf("campaign verdict hash differs across workers: w1=%#x w8=%#x",
			one.VerdictHash, eight.VerdictHash)
	}
	if one.Overflow.Culprit != eight.Overflow.Culprit || one.Dangling.Culprit != eight.Dangling.Culprit {
		t.Errorf("merged culprits differ: w1=(%d,%d) w8=(%d,%d)",
			one.Overflow.Culprit, one.Dangling.Culprit, eight.Overflow.Culprit, eight.Dangling.Culprit)
	}
	if one.Overflow.Culprit != testSchedule().OverflowSite {
		t.Errorf("campaign overflow culprit = %d, want %d", one.Overflow.Culprit, testSchedule().OverflowSite)
	}
	if one.Dangling.Culprit != testSchedule().DanglingSite {
		t.Errorf("campaign dangling culprit = %d, want %d", one.Dangling.Culprit, testSchedule().DanglingSite)
	}
	for i, r := range one.Replicas {
		if r.Failures != eight.Replicas[i].Failures || r.MitigatedCycle != eight.Replicas[i].MitigatedCycle {
			t.Errorf("replica %d diverges across worker counts", i)
		}
	}
}

// TestHealEpochRestartRebinds drives a supervisor through Run's steps.
// At each scheduled restart the dying epoch's space must be closed — an
// access through its Mem faults with the closed reason — and every
// detect.* gauge must read the live epoch's Detector, not the dead one.
// The Result's quarantine counters must come from the final epoch, and
// the whole Result must equal Run's.
func TestHealEpochRestartRebinds(t *testing.T) {
	cfg := testConfig(true)
	cfg.Obs = obs.NewRegistry()
	s, err := newSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restarts := 0
	for c := 0; c < s.cfg.Cycles; c++ {
		dying, dyingDet := s.h, s.det
		if err := s.step(c); err != nil {
			t.Fatal(err)
		}
		if s.h == dying {
			continue
		}
		restarts++
		if _, err := dying.Mem().Load64(uint64(dying.ClassBase(0))); !errors.Is(err, vmem.ErrClosed) {
			t.Fatalf("cycle %d: the dying epoch's space answers %v, want the closed-space fault", c, err)
		}
		live, dead := obs.NewRegistry(), obs.NewRegistry()
		s.det.PublishMetrics(live)
		dyingDet.PublishMetrics(dead)
		for _, m := range live.Snapshot().Metrics {
			if got, ok := cfg.Obs.Get(m.Name); !ok || got != *m.Value {
				t.Errorf("cycle %d: %s reads %v, the live detector %v", c, m.Name, got, *m.Value)
			}
		}
		l, _ := live.Get("detect.allocs")
		if d, _ := dead.Get("detect.allocs"); l == d {
			t.Fatalf("cycle %d: live and dying detectors both count %v allocs; the gauge check cannot tell them apart", c, l)
		}
	}
	if want := (cfg.Cycles - 1) / cfg.EpochCycles; restarts != want {
		t.Fatalf("%d restarts, want %d", restarts, want)
	}
	final := s.h
	res, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	st := final.Stats()
	if res.Quarantined != st.Quarantined || res.QuarantineOut != st.QuarantineOut || res.Quarantined == 0 {
		t.Errorf("Result quarantine %d/%d, final epoch's %d/%d", res.Quarantined, res.QuarantineOut,
			st.Quarantined, st.QuarantineOut)
	}
	want, err := Run(testConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("stepped supervisor's Result differs from Run's:\n%+v\n%+v", res, want)
	}
}

// TestHealAdaptiveCadence verifies the folded-in PR-4 follow-up: the
// barrier cadence tightens below its every-4·Sites start once evidence
// appears.
func TestHealAdaptiveCadence(t *testing.T) {
	cfg := testConfig(true)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	every, floor := heapCheckCadence(cfg.Schedule)
	if res.MinCadence >= every {
		t.Errorf("cadence never tightened: min %d, start %d", res.MinCadence, every)
	}
	if res.MinCadence < floor {
		t.Errorf("cadence %d fell below the floor %d", res.MinCadence, floor)
	}
}

// TestHealBaselineReportsButNeverApplies: with Heal off the verdicts
// still localize the culprits (the evidence pipeline is identical) but
// no countermeasure may be installed.
func TestHealBaselineReportsButNeverApplies(t *testing.T) {
	res, err := Run(testConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PadTable) != 0 || len(res.QuarantineSites) != 0 {
		t.Errorf("baseline installed countermeasures: pads %v quarantine %v",
			res.PadTable, res.QuarantineSites)
	}
	if res.Quarantined != 0 {
		t.Errorf("baseline quarantined %d frees", res.Quarantined)
	}
	if res.Overflow.Culprit != testSchedule().OverflowSite {
		t.Errorf("baseline overflow verdict = %d, want %d (evidence pipeline should not depend on Heal)",
			res.Overflow.Culprit, testSchedule().OverflowSite)
	}
	if res.MitigatedCycle != -1 {
		t.Errorf("baseline logged a mitigation at cycle %d", res.MitigatedCycle)
	}
}

// TestHealConfigValidation pins the rejection surface.
func TestHealConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Schedule.Sites = 0 },
		func(c *Config) { c.Cycles = 0 },
		func(c *Config) { c.Schedule.ObjectSize = 4 },
		func(c *Config) { c.Schedule.OverflowSite = c.Schedule.Sites },
		func(c *Config) { c.Schedule.OverflowEvery = 0 },
		func(c *Config) { c.Schedule.DanglingEvery = 0 },
		func(c *Config) { c.Schedule.DanglingSite = c.Schedule.OverflowSite },
	}
	for i, mutate := range bad {
		cfg := testConfig(true)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
