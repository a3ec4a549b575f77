// Package heal closes the Exterminator-style loop the DieHard lineage
// points at (Berger & Zorn, PLDI 2006, §9): detection evidence → cross-
// layout triage → live runtime countermeasure, running continuously
// inside a service instead of as an offline analysis.
//
// A Supervisor drives a deterministic session service over a canary-
// armed detection heap (internal/detect) under a *planned fault
// schedule*: every cycle allocates the same sequence of allocation
// sites, and the schedule injects a buffer overflow at one site and a
// premature free + stale write at another. Evidence drains out of the
// detector after every cycle into a detect.Accumulator; when a culprit
// site crosses the confidence bar (an absolute vote floor plus Triage's
// strict majority), the supervisor applies a countermeasure *live* —
// no restart, no pause:
//
//   - overflow culprits get a per-site overallocation pad, installed in
//     the Mitigations table: the session adds the site's pad to the size
//     it passes to Malloc, so the buggy write past the requested end now
//     lands in the object's own (enlarged) slot, harming no neighbor.
//     Pads are sized from the evidence (max observed damage extent plus
//     slack) and max-merged, so an under-estimated pad self-corrects
//     when the next escape reveals a longer reach;
//   - dangling culprits get per-site free quarantine: the session frees
//     the site's objects through core's Heap.Quarantine instead of Free,
//     into the heap's delayed-reuse FIFO, keeping the slot out of the
//     probe stream so a stale write lands on memory no new owner holds.
//
// Both countermeasures are calls the session makes, because only the
// caller knows which site an allocation or a free belongs to; a run
// with Heal off installs nothing and makes exactly a plain program's
// calls.
//
// Scheduled epoch restarts re-seed the heap (fresh randomized layout)
// while the Accumulator and Mitigations persist — evidence accumulates
// *across* restart cycles, which is exactly what separates layout-
// coincidental candidates from the true culprit. The adaptive heap-
// check cadence (detect.Options.HeapCheckMin) tightens barriers after
// fresh evidence and backs off exponentially when clean.
//
// The grade is MTBF: mean cycles between invariant failures (a session
// object whose token read-back mismatches, i.e. real corruption a
// plain heap would have suffered), measured unhealed vs healed under
// the same schedule and seeds. RunCampaign replicates the supervisor
// over independently seeded layouts on a deterministic worker pool and
// merges verdicts order-independently, so campaign results are
// byte-identical at any worker count.
package heal

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"diehard/internal/core"
	"diehard/internal/detect"
	"diehard/internal/exps"
	"diehard/internal/heap"
	"diehard/internal/obs"
)

// Schedule is a planned fault schedule: the deterministic per-cycle
// session program plus which allocation sites misbehave, how, and how
// often. Site identity is the allocation index within a cycle — every
// cycle allocates exactly Sites objects in the same order, so site s is
// the s-th allocation of any cycle in any epoch, the layout-invariant
// identity triage needs.
type Schedule struct {
	// Sites is the number of allocations per cycle; ObjectSize the bytes
	// each requests.
	Sites      int
	ObjectSize int
	// OverflowSite, when >= 0, writes OverflowReach bytes past its
	// object's requested end on every OverflowEvery-th cycle.
	OverflowSite  int
	OverflowReach int
	OverflowEvery int
	// DanglingSite, when >= 0, frees its object immediately after
	// initialization on every DanglingEvery-th cycle, then writes
	// through the stale pointer after the cycle's remaining allocations
	// have run (so the slot may have changed hands).
	DanglingSite  int
	DanglingEvery int
}

// Config configures a Supervisor run.
type Config struct {
	// Seed is the base layout seed; epochs and campaign replicas derive
	// from it.
	Seed uint64
	// HeapSize and M configure the underlying DieHard heap. The default
	// heap is deliberately small (96 KB) so the class region the
	// schedule exercises runs near its 1/M threshold — a nearly full
	// heap is where unhealed faults actually strike neighbors.
	HeapSize int
	M        float64
	Schedule Schedule
	// Cycles is the total session cycles to run; EpochCycles, when
	// positive, discards and re-seeds the heap every that many cycles
	// (the scheduled restart that re-randomizes the layout). Evidence
	// and countermeasures persist across epochs.
	Cycles      int
	EpochCycles int
	// Heal enables the countermeasure loop; false measures the unhealed
	// baseline (evidence still accumulates, verdicts are still reported,
	// nothing is applied).
	Heal bool
	// HeapCheckEvery / HeapCheckMin set the detector's barrier cadence
	// (defaults 4*Sites and max(1, Sites/2): adaptive, tightening after
	// evidence).
	HeapCheckEvery int
	HeapCheckMin   int
	// Obs, when non-nil, receives the supervisor's slice of the unified
	// metrics tree: heal.* gauges over the run's tally, a heal.cycle_ns
	// latency histogram, and the detect.* gauges of the live epoch
	// (re-bound on every restart — the registry's idempotent rebind).
	// The supervisor is sequential, so scrape from its goroutine or at
	// quiescence. Purely observational: no timestamps feed the verdicts,
	// so VerdictHash is unchanged by wiring this.
	Obs *obs.Registry
	// Trace, when non-nil, attaches the flight recorder: the supervisor
	// and its detection heap share ring SupervisorRing — EvEvidence per
	// recorded canary hit, EvBarrier per heap check, EvCountermeasure
	// per pad/quarantine installation.
	Trace *obs.Recorder
}

// SupervisorRing is the flight-recorder worker id the heal supervisor
// emits on, disjoint from serve's workers (0..W-1) and shard rings
// (100+).
const SupervisorRing = 200

// quarantineCap bounds each epoch heap's delayed-reuse FIFO.
const quarantineCap = 8

// confidenceBar is the absolute vote floor a culprit needs before a
// countermeasure fires; the strict-majority rule applies on top.
const confidenceBar = 3

func (c *Config) withDefaults() (Config, error) {
	v := *c
	if v.HeapSize == 0 {
		v.HeapSize = 96 << 10
	}
	if v.M == 0 {
		v.M = 2.0
	}
	s := v.Schedule
	if s.Sites <= 0 || v.Cycles <= 0 {
		return v, fmt.Errorf("heal: Sites and Cycles must be positive")
	}
	if s.ObjectSize < 8 || s.ObjectSize > core.MaxObjectSize {
		return v, fmt.Errorf("heal: ObjectSize %d outside [8, %d]", s.ObjectSize, core.MaxObjectSize)
	}
	if s.OverflowSite >= s.Sites || s.DanglingSite >= s.Sites {
		return v, fmt.Errorf("heal: fault sites must lie below Sites=%d", s.Sites)
	}
	if s.OverflowSite >= 0 && (s.OverflowEvery <= 0 || s.OverflowReach <= 0) {
		return v, fmt.Errorf("heal: OverflowSite needs positive OverflowEvery and OverflowReach")
	}
	if s.DanglingSite >= 0 && s.DanglingEvery <= 0 {
		return v, fmt.Errorf("heal: DanglingSite needs positive DanglingEvery")
	}
	if s.OverflowSite >= 0 && s.OverflowSite == s.DanglingSite {
		return v, fmt.Errorf("heal: overflow and dangling sites must differ")
	}
	if v.HeapCheckEvery == 0 {
		v.HeapCheckEvery = 4 * s.Sites
	}
	if v.HeapCheckMin == 0 {
		v.HeapCheckMin = s.Sites / 2
		if v.HeapCheckMin < 1 {
			v.HeapCheckMin = 1
		}
	}
	return v, nil
}

// Event is one entry in the supervisor's timeline.
type Event struct {
	Cycle int
	Kind  string // "onset", "pad", "quarantine", "restart"
	Site  int    // convicted site for pad/quarantine, -1 otherwise
	Note  string
}

// Result is one supervisor run's outcome.
type Result struct {
	Seed     uint64
	Cycles   int
	Failures int // cycles with >= 1 corrupted session token (or failed malloc)
	Restarts int
	// MTBF is mean cycles between failures: Cycles / max(1, Failures).
	MTBF float64
	// OnsetCycle is the first cycle with a failure or fresh evidence;
	// MitigatedCycle the first countermeasure application (-1 when
	// never). RestartsOnsetToMitigation counts restarts strictly between
	// the two — zero is the "applied live" property the acceptance
	// criteria demand.
	OnsetCycle                int
	MitigatedCycle            int
	RestartsOnsetToMitigation int
	Timeline                  []Event
	// Overflow and Dangling are this run's final verdicts; PadTable and
	// QuarantineSites the countermeasures in force at the end.
	Overflow        *detect.TriageResult
	Dangling        *detect.TriageResult
	PadTable        map[int]int
	QuarantineSites []int
	// EvidenceWindows counts cycles that produced evidence; MinCadence
	// is the tightest barrier interval the adaptive cadence reached.
	EvidenceWindows int
	MinCadence      int
	// Quarantined / QuarantineOut are the final epoch's FIFO counters.
	Quarantined   uint64
	QuarantineOut uint64
}

// supervisor is one replica's running state.
type supervisor struct {
	cfg Config
	mit *Mitigations
	acc *detect.Accumulator
	res *Result

	h     *detect.Heap
	det   *detect.Detector
	mem   heap.Memory
	ptrs  []heap.Ptr
	epoch int

	ring    *obs.Ring      // supervisor + detection-heap trace ring
	cycleNs *obs.Histogram // per-cycle wall latency (Obs runs only)
}

// Run executes one supervisor under cfg and returns its Result.
func Run(cfg Config) (*Result, error) {
	s, err := run(cfg)
	if err != nil {
		return nil, err
	}
	return s.res, nil
}

// run executes one supervisor and returns it finished, its Result
// complete; RunCampaign also merges its accumulator.
func run(cfg Config) (*supervisor, error) {
	s, err := newSupervisor(cfg)
	if err != nil {
		return nil, err
	}
	for c := 0; c < s.cfg.Cycles; c++ {
		if err := s.step(c); err != nil {
			return nil, err
		}
	}
	if _, err := s.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// newSupervisor wires a supervisor's telemetry and builds its first
// epoch.
func newSupervisor(cfg Config) (*supervisor, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &supervisor{
		cfg: cfg,
		mit: NewMitigations(),
		acc: &detect.Accumulator{},
		res: &Result{
			Seed: cfg.Seed, OnsetCycle: -1, MitigatedCycle: -1,
			MinCadence: cfg.HeapCheckEvery,
		},
		ptrs: make([]heap.Ptr, cfg.Schedule.Sites),
	}
	s.ring = cfg.Trace.Ring(SupervisorRing)
	if cfg.Obs != nil {
		s.cycleNs = &obs.Histogram{}
		cfg.Obs.Histogram("heal.cycle_ns", s.cycleNs)
		res := s.res
		cfg.Obs.Gauge("heal.failures", func() float64 { return float64(res.Failures) })
		cfg.Obs.Gauge("heal.restarts", func() float64 { return float64(res.Restarts) })
		cfg.Obs.Gauge("heal.evidence_windows", func() float64 { return float64(res.EvidenceWindows) })
		cfg.Obs.Gauge("heal.min_cadence", func() float64 { return float64(res.MinCadence) })
		cfg.Obs.Gauge("heal.pads_installed", func() float64 { return float64(s.mit.PadCount()) })
		cfg.Obs.Gauge("heal.quarantine_sites", func() float64 { return float64(s.mit.QuarantineCount()) })
	}
	if err := s.startEpoch(); err != nil {
		return nil, err
	}
	return s, nil
}

// step runs cycle c, after the scheduled epoch restart when one is due.
func (s *supervisor) step(c int) error {
	if s.cfg.EpochCycles > 0 && c > 0 && c%s.cfg.EpochCycles == 0 {
		if err := s.restart(c); err != nil {
			return err
		}
	}
	var t0 time.Time
	if s.cycleNs != nil {
		t0 = time.Now()
	}
	if err := s.cycle(c); err != nil {
		return err
	}
	if s.cycleNs != nil {
		s.cycleNs.Record(time.Since(t0).Nanoseconds())
	}
	return nil
}

// finish checks the final epoch's heap, records its quarantine
// counters, closes it, and completes the Result.
func (s *supervisor) finish() (*Result, error) {
	if err := s.h.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("heal: final invariant check: %w", err)
	}
	st := s.h.Stats()
	s.res.Quarantined = st.Quarantined
	s.res.QuarantineOut = st.QuarantineOut
	s.h.Close()
	cfg := &s.cfg
	s.res.Cycles = cfg.Cycles
	s.res.MTBF = float64(cfg.Cycles) / float64(max(1, s.res.Failures))
	s.res.Overflow = s.acc.Verdict(detect.KindOverflow, confidenceBar)
	s.res.Dangling = s.acc.Verdict(detect.KindDangling, confidenceBar)
	s.res.PadTable = s.mit.PadTable()
	s.res.QuarantineSites = s.mit.QuarantineSites()
	return s.res, nil
}

// startEpoch builds a fresh canary-armed heap for the current epoch.
// The Mitigations table and the accumulator outlive every epoch.
func (s *supervisor) startEpoch() error {
	copts := core.Options{
		HeapSize:      s.cfg.HeapSize,
		M:             s.cfg.M,
		Seed:          exps.DeriveSeed(s.cfg.Seed, s.epoch),
		QuarantineCap: quarantineCap,
	}
	h, err := detect.New(copts, detect.Options{
		HeapCheckEvery: s.cfg.HeapCheckEvery,
		HeapCheckMin:   s.cfg.HeapCheckMin,
		Trace:          s.ring,
	})
	if err != nil {
		return err
	}
	s.h, s.det, s.mem = h, h.Detector(), h.Memory()
	// Each epoch's detector re-binds the detect.* gauges, so the tree
	// always reads the live heap (the dead epoch's tallies persist in
	// the supervisor's own heal.* gauges and the accumulator).
	s.det.PublishMetrics(s.cfg.Obs)
	s.epoch++
	return nil
}

// restart is the scheduled epoch restart: drain what the dying layout
// still knows (flush the quarantine so its releases get their reuse
// audits, run a final barrier, bank the evidence), close its heap, then
// re-seed.
func (s *supervisor) restart(c int) error {
	s.h.FlushQuarantine()
	s.det.HeapCheck()
	s.drainEvidence(c)
	s.h.Close()
	s.res.Restarts++
	s.log(Event{Cycle: c, Kind: "restart", Site: -1,
		Note: fmt.Sprintf("epoch %d: re-seeded layout", s.epoch)})
	if s.res.OnsetCycle >= 0 && s.res.MitigatedCycle < 0 {
		s.res.RestartsOnsetToMitigation++
	}
	return s.startEpoch()
}

// token is the value session objects are initialized with and verified
// against: unique per (site, cycle), never zero, never canary.
func token(site, cycle int) uint64 {
	z := uint64(site)<<32 ^ uint64(cycle) ^ 0xd1e4a5d1e4a5d1e4
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	return z | 1
}

// cycle runs one session cycle: allocate all sites, inject the planned
// faults, verify every surviving object's token, tear down, drain
// evidence, and (when healing) adjudicate and apply countermeasures.
func (s *supervisor) cycle(c int) error {
	sch := &s.cfg.Schedule
	injectDangling := sch.DanglingSite >= 0 && c%sch.DanglingEvery == sch.DanglingEvery-1
	injectOverflow := sch.OverflowSite >= 0 && c%sch.OverflowEvery == sch.OverflowEvery-1
	var stale heap.Ptr
	failed := false

	for site := 0; site < sch.Sites; site++ {
		p, err := s.h.Malloc(sch.ObjectSize + s.mit.Pad(site))
		if err != nil {
			// A planned schedule never exhausts the heap; treat refusal
			// as a failure and keep serving.
			failed = true
			s.ptrs[site] = heap.Null
			continue
		}
		s.ptrs[site] = p
		_ = s.mem.Store64(uint64(p), token(site, c))
		if injectDangling && site == sch.DanglingSite {
			// Premature free: the program will still write through (and
			// verify) this pointer later in the cycle.
			stale = p
			s.free(site, p)
			s.ptrs[site] = heap.Null
		}
	}

	if injectOverflow && s.ptrs[sch.OverflowSite] != heap.Null {
		// The overflow writes past the *requested* end — padding enlarges
		// the slot underneath, not the program's idea of its object.
		base := uint64(s.ptrs[sch.OverflowSite]) + uint64(sch.ObjectSize)
		junk := make([]byte, sch.OverflowReach)
		for i := range junk {
			junk[i] = 0xEE
		}
		_ = s.h.Mem().WriteBytes(base, junk) // may run off the region: the fault is the point
	}
	if injectDangling && stale != heap.Null {
		// Stale write after the cycle's remaining allocations: the slot
		// may belong to someone else now — unless quarantine held it.
		_ = s.h.Mem().WriteBytes(uint64(stale), []byte{0xDD, 0xDD, 0xDD, 0xDD, 0xDD, 0xDD, 0xDD, 0xDD})
	}

	// Verify: every live session object must still carry its token.
	for site := 0; site < sch.Sites; site++ {
		if s.ptrs[site] == heap.Null {
			continue
		}
		v, err := s.mem.Load64(uint64(s.ptrs[site]))
		if err != nil || v != token(site, c) {
			failed = true
		}
	}
	// Teardown frees every surviving object; slack audits fire here.
	for site := 0; site < sch.Sites; site++ {
		if s.ptrs[site] == heap.Null {
			continue
		}
		s.free(site, s.ptrs[site])
		s.ptrs[site] = heap.Null
	}

	if failed {
		s.res.Failures++
	}
	fresh := s.drainEvidence(c)
	if (failed || fresh) && s.res.OnsetCycle < 0 {
		s.res.OnsetCycle = c
		s.log(Event{Cycle: c, Kind: "onset", Site: -1, Note: "first failure or evidence"})
	}
	if s.cfg.Heal {
		s.adjudicate(c)
	}
	if cad := s.det.Cadence(); cad < s.res.MinCadence {
		s.res.MinCadence = cad
	}
	return nil
}

// free releases site's object, into the heap's quarantine when the site
// is convicted of dangling frees. Both calls ignore what they cannot
// free, as DieHard's Free does.
func (s *supervisor) free(site int, p heap.Ptr) {
	if s.mit.Quarantined(site) {
		_ = s.h.Quarantine(p)
		return
	}
	_ = s.h.Free(p)
}

// drainEvidence moves the detector's evidence into the accumulator as
// one window (site identity = allocation index mod Sites). Returns
// whether the window carried anything.
func (s *supervisor) drainEvidence(c int) bool {
	evs, _ := s.det.TakeEvidence()
	if len(evs) == 0 {
		return false
	}
	s.acc.Observe(evs, s.cfg.Schedule.Sites)
	s.res.EvidenceWindows++
	return true
}

// adjudicate checks both verdicts against the confidence bar and applies
// any newly warranted countermeasure — between two cycles of a running
// service, with no restart.
func (s *supervisor) adjudicate(c int) {
	if v := s.acc.Verdict(detect.KindOverflow, confidenceBar); v.Culprit >= 0 {
		// The largest observed damage extent plus one canary width,
		// rounded up to a word.
		pad := (v.OverflowLen + detect.CanaryBytes + 7) &^ 7
		if s.mit.SetPad(v.Culprit, pad) {
			s.noteMitigation(c)
			if s.ring != nil {
				s.ring.Emit(obs.EvCountermeasure, uint64(v.Culprit))
			}
			s.log(Event{Cycle: c, Kind: "pad", Site: v.Culprit,
				Note: fmt.Sprintf("pad=%dB votes=%d/%d", pad, v.Votes[v.Culprit], v.Detected)})
		}
	}
	if v := s.acc.Verdict(detect.KindDangling, confidenceBar); v.Culprit >= 0 {
		if s.mit.SetQuarantine(v.Culprit) {
			s.noteMitigation(c)
			if s.ring != nil {
				s.ring.Emit(obs.EvCountermeasure, uint64(v.Culprit))
			}
			s.log(Event{Cycle: c, Kind: "quarantine", Site: v.Culprit,
				Note: fmt.Sprintf("votes=%d/%d", v.Votes[v.Culprit], v.Detected)})
		}
	}
}

func (s *supervisor) noteMitigation(c int) {
	if s.res.MitigatedCycle < 0 {
		s.res.MitigatedCycle = c
	}
}

func (s *supervisor) log(ev Event) { s.res.Timeline = append(s.res.Timeline, ev) }

// CampaignResult aggregates a replicated supervisor campaign.
type CampaignResult struct {
	Replicas []*Result
	// Cycles / Failures / Restarts are totals; MTBF the pooled mean
	// cycles between failures.
	Cycles   int
	Failures int
	Restarts int
	MTBF     float64
	// Overflow and Dangling are the verdicts over the merged cross-
	// replica accumulator evidence — per-replica windows re-adjudicated
	// jointly, the replicated analog of detect.Triage.
	Overflow *detect.TriageResult
	Dangling *detect.TriageResult
	// VerdictHash is an FNV-1a digest of every replica's observable
	// outcome plus the merged verdicts: byte-identical across worker
	// counts by construction, pinned by the regression tests.
	VerdictHash uint64
}

// RunCampaign replicates the supervisor over `replicas` independently
// seeded layouts (seeds derived SplitMix64-style from cfg.Seed) on
// exps.MapTrials' pool of `workers` goroutines (at least one). Each
// replica is fully sequential and self-contained — its own heap,
// accumulator, and mitigation table — so scheduling cannot perturb it;
// merging is order-independent sums, so the campaign result is
// byte-identical at any worker count.
func RunCampaign(cfg Config, replicas, workers int) (*CampaignResult, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("heal: replicas must be positive")
	}
	// Clamped first: MapTrials reads workers <= 0 as one per CPU.
	sups, err := exps.MapTrials(replicas, max(workers, 1), func(i int) (*supervisor, error) {
		rcfg := cfg
		rcfg.Seed = exps.DeriveSeed(cfg.Seed, i)
		return run(rcfg)
	})
	if err != nil {
		return nil, err
	}
	cr := &CampaignResult{}
	merged := &detect.Accumulator{}
	for _, s := range sups {
		r := s.res
		cr.Replicas = append(cr.Replicas, r)
		cr.Cycles += r.Cycles
		cr.Failures += r.Failures
		cr.Restarts += r.Restarts
		merged.Merge(s.acc)
	}
	cr.MTBF = float64(cr.Cycles) / float64(max(1, cr.Failures))
	cr.Overflow = merged.Verdict(detect.KindOverflow, confidenceBar)
	cr.Dangling = merged.Verdict(detect.KindDangling, confidenceBar)
	cr.VerdictHash = cr.hash()
	return cr, nil
}

// hash digests the campaign's observable outcome.
func (cr *CampaignResult) hash() uint64 {
	h := fnv.New64a()
	wr := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				b[i] = byte(uint64(v) >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	wrVerdict := func(v *detect.TriageResult) {
		wr(len(v.Kind), v.Trials, v.Detected, v.Culprit, v.OverflowLen)
		sites := make([]int, 0, len(v.Votes))
		for s := range v.Votes {
			sites = append(sites, s)
		}
		sort.Ints(sites)
		for _, s := range sites {
			wr(s, v.Votes[s])
		}
	}
	for _, r := range cr.Replicas {
		wr(r.Cycles, r.Failures, r.Restarts, r.OnsetCycle, r.MitigatedCycle,
			r.RestartsOnsetToMitigation, r.EvidenceWindows, r.MinCadence,
			int(r.Quarantined), int(r.QuarantineOut))
		sites := make([]int, 0, len(r.PadTable))
		for s := range r.PadTable {
			sites = append(sites, s)
		}
		sort.Ints(sites)
		for _, s := range sites {
			wr(s, r.PadTable[s])
		}
		wr(r.QuarantineSites...)
		wrVerdict(r.Overflow)
		wrVerdict(r.Dangling)
	}
	wrVerdict(cr.Overflow)
	wrVerdict(cr.Dangling)
	return h.Sum64()
}
