package exps

import (
	"fmt"
	"hash/fnv"

	"diehard/internal/core"
	"diehard/internal/detect"
	"diehard/internal/fault"
	"diehard/internal/heap"
	"diehard/internal/rng"
)

// This file is the detection campaign: the canary engine
// (internal/detect) graded against ground truth from internal/fault
// injection plans. Each cell of the table is one error type at one heap
// multiplier; half its trials carry a planned injected error, half are
// clean, and the cell reports trial-level precision and recall plus —
// for overflows — how often the cross-layout triage localized the
// culprit allocation site. Like every campaign in this package, the
// trials fan out over MapTrials with per-trial derived seeds, so the
// table is byte-identical for any worker count.

// DetectError names a detection-campaign error type.
type DetectError string

const (
	// DetectOverflow injects planned under-allocations
	// (fault.PlanOverflow): the program writes its requested size, which
	// overflows the shrunken object.
	DetectOverflow DetectError = "overflow"
	// DetectDangling injects planned premature frees
	// (fault.PlanDangling): the program's final write to the object goes
	// through a stale pointer.
	DetectDangling DetectError = "dangling"
	// DetectUninit skips the initialization of one object, which the
	// program then reads through the checked memory view.
	DetectUninit DetectError = "uninit"
)

// DetectErrors lists the campaign's error types in table order.
var DetectErrors = []DetectError{DetectOverflow, DetectDangling, DetectUninit}

// DetectPolicy names the detection tier a cell grades (DESIGN.md §15's
// three-tier story): the canary engine's probabilistic fingerprints,
// the generation tags' deterministic temporal checks, or the replicated
// random-fill divergence vote of the paper's own replicated mode.
type DetectPolicy string

const (
	// PolicyProbabilistic is the canary engine (internal/detect): errors
	// are caught when they damage a fingerprint, at the closed-form rates
	// the analysis package quantifies.
	PolicyProbabilistic DetectPolicy = "probabilistic"
	// PolicyGenTag is the generation-tagged tier: stale frees and stale
	// accesses are rejected deterministically by the tag check, so its
	// dangling precision and recall are exactly 1.
	PolicyGenTag DetectPolicy = "gentag"
	// PolicyReplicated is the replicated vote: the same program runs on
	// independently seeded random-fill replicas, and a read whose values
	// diverge across replicas exposes uninitialized data (Theorem 3's
	// mechanism, realized sequentially).
	PolicyReplicated DetectPolicy = "replicated"
)

// DetectPolicies lists the campaign's policy tiers in table order.
var DetectPolicies = []DetectPolicy{PolicyProbabilistic, PolicyGenTag, PolicyReplicated}

// detectReplicas is the replicated tier's vote size, the paper's
// recommended three.
const detectReplicas = 3

// Injection geometry of the overflow plan. MinSize 60 with delta 32
// pushes the victim into the next-smaller size class, so the program's
// full-size writes always cross the victim's slack (guaranteed canary
// damage at the free audit) and escape into the adjacent slot (the
// layout-dependent damage triage intersects away).
const (
	detectOverflowMinSize = 60
	detectOverflowDelta   = 32
	detectDanglingFreq    = 0.08
	detectDanglingDist    = 8
)

// DetectParams configures RunDetectionTable; zero values select the
// defaults.
type DetectParams struct {
	// Trials per cell (default 16); odd-indexed trials carry the
	// injected error, even-indexed trials are clean controls.
	Trials int
	// Layouts is the number of independently seeded heap layouts each
	// detected injected overflow trial is re-run under for triage
	// (default 16).
	Layouts int
	// Multipliers are the heap expansion factors M swept (default 2, 4).
	Multipliers []float64
	// HeapSize per trial heap (default 2 MB: small heaps keep barrier
	// audits cheap without changing the engine's behavior).
	HeapSize int
	// Allocs and Live shape the workload: Allocs allocations through a
	// ring of Live simultaneously live objects (defaults 160 and 24).
	Allocs int
	Live   int
	// Seed keys the per-trial seed derivation (default 0xDE7EC7).
	Seed uint64
}

func (p *DetectParams) defaults() {
	if p.Trials == 0 {
		p.Trials = 16
	}
	if p.Layouts == 0 {
		p.Layouts = 16
	}
	if len(p.Multipliers) == 0 {
		p.Multipliers = []float64{2, 4}
	}
	if p.HeapSize == 0 {
		p.HeapSize = 2 << 20
	}
	if p.Allocs == 0 {
		p.Allocs = 160
	}
	if p.Live == 0 {
		p.Live = 24
	}
	if p.Seed == 0 {
		p.Seed = 0xDE7EC7
	}
}

// DetectCell is one (policy, error type, multiplier) entry of the
// table.
type DetectCell struct {
	// Policy is the detection tier the cell grades. Probabilistic cells
	// are the original campaign; the gentag and replicated cells grade
	// the deterministic tiers of DESIGN.md §15 on the errors they
	// target (dangling and uninit respectively).
	Policy     DetectPolicy
	Error      DetectError
	Multiplier float64
	Trials     int
	Injected   int // trials that carried the planned error
	TruePos    int // injected and detected
	FalsePos   int // clean but detected
	FalseNeg   int // injected but missed
	TrueNeg    int
	Precision  float64 // TP / (TP + FP); 1 when nothing was flagged
	Recall     float64 // TP / (TP + FN); 1 when nothing was injected
	// TriageTrials counts detected injected overflow trials that were
	// re-run across the seeded layouts; TriageLocalized how many of
	// those pinned the true victim allocation site.
	TriageTrials    int
	TriageLocalized int
	// MeanOverflowLen is the mean inferred overflow extent over the
	// localized trials — a lower bound assembled from audited damage.
	MeanOverflowLen float64
	// OutputHash is 64-bit FNV-1a over the per-trial outcomes in trial
	// order: the determinism fingerprint the workers=1-vs-N tests
	// compare.
	OutputHash uint64
}

// DetectionTable is the full campaign result.
type DetectionTable struct {
	Params DetectParams
	Cells  []DetectCell
}

// detectTrialOut is one trial's deterministic outcome.
type detectTrialOut struct {
	injected  bool
	detected  bool
	triaged   bool
	localized bool
	length    int
	evidence  int
}

// runDetectWorkload is the deterministic campaign program: Allocs
// allocations of mixed sizes through a ring of Live objects; every
// object is initialized at birth (except the uninit victim), read and
// rewritten at full intended size just before its free. Reads go
// through mem — the checked view in detection runs — and the intended
// (pre-injection) sizes come from the program, exactly as a real
// application's writes would.
func runDetectWorkload(alloc heap.Allocator, mem heap.Memory, allocs, live, uninitVictim int) error {
	ring := make([]heap.Ptr, live)
	reqs := make([]int, live)
	for i := 0; i < allocs; i++ {
		slot := i % live
		if p := ring[slot]; p != heap.Null {
			if _, err := mem.Load64(p); err != nil {
				return err
			}
			// The program's final touch: write the full intended size.
			if err := mem.Memset(p, byte(0x60+i%8), reqs[slot]); err != nil {
				return err
			}
			if err := alloc.Free(p); err != nil {
				return err
			}
		}
		size := detectWorkloadSize(i)
		p, err := alloc.Malloc(size)
		if err != nil {
			return err
		}
		if i != uninitVictim {
			if err := mem.Memset(p, byte(0x40+i%8), size); err != nil {
				return err
			}
		}
		ring[slot] = p
		reqs[slot] = size
	}
	return nil
}

// detectWorkloadSize is the request-size schedule: 24..63 bytes, all
// residues, so the workload spans two size classes and includes
// overflow-eligible (>= 60 byte) requests.
func detectWorkloadSize(i int) int { return 24 + (i*13)%40 }

// detectTrace runs the workload once under a tracing allocator to
// produce the allocation log the fault plans draw from. Allocation
// order is a property of the program, so one trace serves every trial.
func detectTrace(p DetectParams) (*fault.Trace, error) {
	h, err := core.New(core.Options{HeapSize: p.HeapSize, Seed: 0xC1EA})
	if err != nil {
		return nil, err
	}
	defer h.Close()
	tracer := fault.NewTracer(h)
	if err := runDetectWorkload(tracer, h.Mem(), p.Allocs, p.Live, -1); err != nil {
		return nil, fmt.Errorf("exps: detection trace run failed: %w", err)
	}
	return tracer.Trace(), nil
}

// runDetectLayout executes one seeded layout of a trial and returns the
// detector's report. crashed reports a simulated crash (an injected
// overflow can run off the end of a subregion into its guard page —
// the randomized heap's own detection mechanism); the detector's
// evidence up to the crash is still returned.
func runDetectLayout(p DetectParams, mult float64, layoutSeed uint64,
	oplan *fault.OverflowPlan, dplan *fault.DanglingPlan, uninitVictim int) (rep *detect.Report, crashed bool, err error) {
	dh, err := detect.New(
		core.Options{HeapSize: p.HeapSize, M: mult, Seed: layoutSeed},
		detect.Options{},
	)
	if err != nil {
		return nil, false, err
	}
	defer dh.Close()
	var alloc heap.Allocator = dh
	switch {
	case oplan != nil:
		alloc = fault.NewPlannedOverflowInjector(dh, oplan)
	case dplan != nil:
		alloc = fault.NewDanglingInjector(dh, dplan)
	}
	runErr := runDetectWorkload(alloc, dh.Memory(), p.Allocs, p.Live, uninitVictim)
	if runErr != nil && !heap.IsCrash(runErr) {
		return nil, false, runErr
	}
	dh.Detector().HeapCheck()
	return dh.Detector().Report(), runErr != nil, nil
}

// detectKindOf maps a campaign error type to the evidence kind it
// grades against.
func detectKindOf(e DetectError) detect.Kind {
	switch e {
	case DetectOverflow:
		return detect.KindOverflow
	case DetectDangling:
		return detect.KindDangling
	default:
		return detect.KindUninit
	}
}

func hasKind(r *detect.Report, k detect.Kind) bool {
	for _, ev := range r.Evidence {
		if ev.Kind == k {
			return true
		}
	}
	return false
}

// runGenTagTrial executes one generation-tagged trial: the campaign
// workload driven through the fat-pointer API and the GenMemory view.
// An injected trial frees the victim prematurely but keeps its fat
// pointer in the ring, so the program's later read, rewrite, and free
// of the victim are stale accesses and a stale free. Detection is
// deterministic — the tag check cannot miss a dead pointer (recall 1)
// and cannot fire on a live one (precision 1) — which is the point the
// cell's exact 1.0 columns record.
func runGenTagTrial(p DetectParams, mult float64, layoutSeed uint64, victim int) (detectTrialOut, error) {
	dh, err := detect.New(
		core.Options{HeapSize: p.HeapSize, M: mult, Seed: layoutSeed, GenTags: true},
		detect.Options{},
	)
	if err != nil {
		return detectTrialOut{}, err
	}
	defer dh.Close()
	gm := dh.GenMemory()
	ring := make([]heap.FatPtr, p.Live)
	reqs := make([]int, p.Live)
	for i := 0; i < p.Allocs; i++ {
		slot := i % p.Live
		if fp := ring[slot]; fp.Addr != heap.Null {
			if _, err := gm.Load64(fp, 0); err != nil {
				return detectTrialOut{}, err
			}
			if err := gm.Memset(fp, 0, byte(0x60+i%8), reqs[slot]); err != nil {
				return detectTrialOut{}, err
			}
			// A stale free returns accepted=false, not an error: the
			// program plows on, exactly like a real double free under
			// this tier.
			if _, err := dh.FreeFat(fp); err != nil {
				return detectTrialOut{}, err
			}
		}
		size := detectWorkloadSize(i)
		fp, err := dh.MallocFat(size)
		if err != nil {
			return detectTrialOut{}, err
		}
		if err := gm.Memset(fp, 0, byte(0x40+i%8), size); err != nil {
			return detectTrialOut{}, err
		}
		if i == victim {
			// The injected error: the object dies now, but its fat
			// pointer stays in the ring for the revisit.
			if ok, err := dh.FreeFat(fp); !ok || err != nil {
				return detectTrialOut{}, fmt.Errorf("exps: premature free rejected: %v, %v", ok, err)
			}
		}
		ring[slot] = fp
		reqs[slot] = size
	}
	dh.Detector().HeapCheck()
	rep := dh.Detector().Report()
	return detectTrialOut{
		injected: victim >= 0,
		detected: hasKind(rep, detect.KindStaleFree) || hasKind(rep, detect.KindStaleAccess),
		evidence: len(rep.Evidence),
	}, nil
}

// recordingMem captures the value stream of the program's Load64 reads
// so replicated runs can be compared position by position.
type recordingMem struct {
	heap.Memory
	vals []uint64
}

func (m *recordingMem) Load64(addr uint64) (uint64, error) {
	v, err := m.Memory.Load64(addr)
	if err == nil {
		m.vals = append(m.vals, v)
	}
	return v, err
}

// runReplicatedTrial executes one replicated-tier trial: the same
// campaign program runs to completion on detectReplicas independently
// seeded random-fill core heaps, and the replicas' read streams are
// compared position by position. The program's own writes are
// deterministic, so clean replicas read byte-identical values; a read
// of never-initialized memory returns each replica's private random
// fill and the position diverges — Theorem 3's voting mechanism,
// realized sequentially.
func runReplicatedTrial(p DetectParams, mult float64, trialSeed uint64, victim int) (detectTrialOut, error) {
	streams, err := replicaReadStreams(p, mult, trialSeed, victim)
	if err != nil {
		return detectTrialOut{}, err
	}
	diverged := 0
	for i := range streams[0] {
		for k := 1; k < detectReplicas; k++ {
			if streams[k][i] != streams[0][i] {
				diverged++
				break
			}
		}
	}
	return detectTrialOut{
		injected: victim >= 0,
		detected: diverged > 0,
		evidence: diverged,
	}, nil
}

// replicaReadStreams runs the campaign program on each replica's
// random-fill heap and returns the replicas' Load64 read streams.
func replicaReadStreams(p DetectParams, mult float64, trialSeed uint64, victim int) ([][]uint64, error) {
	streams := make([][]uint64, detectReplicas)
	for k := 0; k < detectReplicas; k++ {
		h, err := core.New(core.Options{
			HeapSize:   p.HeapSize,
			M:          mult,
			Seed:       DeriveSeed(trialSeed, 0x5E0+k),
			RandomFill: true,
		})
		if err != nil {
			return nil, err
		}
		rm := &recordingMem{Memory: h.Mem()}
		err = runDetectWorkload(h, rm, p.Allocs, p.Live, victim)
		h.Close()
		if err != nil {
			return nil, err
		}
		if k > 0 && len(rm.vals) != len(streams[0]) {
			return nil, fmt.Errorf("exps: replica read streams diverged in length (%d vs %d)",
				len(rm.vals), len(streams[0]))
		}
		streams[k] = rm.vals
	}
	return streams, nil
}

// RunDetectionTable grades the canary detection engine against planned
// fault injection: for every error type and heap multiplier, half the
// trials carry an injected error with known ground truth and half are
// clean controls, yielding trial-level precision and recall. Detected
// injected overflow trials are additionally re-run under Layouts
// independently seeded heap layouts and triaged (detect.Triage); the
// cell records how often the intersection localized the true victim
// allocation site.
//
// Trials fan out across `workers` goroutines on the campaign engine;
// every trial's randomness derives from the campaign seed and its index
// (DeriveSeed), so the table — including every OutputHash — is
// byte-identical for any worker count.
func RunDetectionTable(params DetectParams, workers int) (*DetectionTable, error) {
	p := params
	p.defaults()
	if p.Live < 1 || p.Allocs <= p.Live {
		// The uninit victim must be freed (and therefore read) before the
		// workload ends, which needs Allocs > Live ring slots.
		return nil, fmt.Errorf("exps: detection workload needs Allocs (%d) > Live (%d) >= 1", p.Allocs, p.Live)
	}
	trace, err := detectTrace(p)
	if err != nil {
		return nil, err
	}
	type cellSpec struct {
		policy DetectPolicy
		kind   DetectError
		mult   float64
	}
	var specs []cellSpec
	// Probabilistic cells come first and keep the original spec order,
	// so the global trial index g — and with it DeriveSeed(p.Seed, g) —
	// of every pre-existing cell is unchanged and its OutputHash stays
	// pinned to the PR-4 recording. The deterministic tiers append after
	// with fresh indices.
	for _, m := range p.Multipliers {
		for _, k := range DetectErrors {
			specs = append(specs, cellSpec{policy: PolicyProbabilistic, kind: k, mult: m})
		}
	}
	for _, m := range p.Multipliers {
		specs = append(specs, cellSpec{policy: PolicyGenTag, kind: DetectDangling, mult: m})
	}
	for _, m := range p.Multipliers {
		specs = append(specs, cellSpec{policy: PolicyReplicated, kind: DetectUninit, mult: m})
	}
	outs, err := MapTrials(len(specs)*p.Trials, workers, func(g int) (detectTrialOut, error) {
		spec := specs[g/p.Trials]
		t := g % p.Trials
		trialSeed := DeriveSeed(p.Seed, g)
		injected := t%2 == 1
		switch spec.policy {
		case PolicyGenTag:
			victim := -1
			if injected {
				victim = int(DeriveSeed(trialSeed, 0xFA7) % uint64(p.Allocs-p.Live))
			}
			return runGenTagTrial(p, spec.mult, DeriveSeed(trialSeed, 0), victim)
		case PolicyReplicated:
			victim := -1
			if injected {
				victim = int(DeriveSeed(trialSeed, 0xBEEF) % uint64(p.Allocs-p.Live))
			}
			return runReplicatedTrial(p, spec.mult, trialSeed, victim)
		}
		var (
			oplan      *fault.OverflowPlan
			dplan      *fault.DanglingPlan
			uninit     = -1
			victimSite = -1
		)
		if injected {
			switch spec.kind {
			case DetectOverflow:
				oplan = fault.PlanOverflow(trace, 1, detectOverflowMinSize, detectOverflowDelta, trialSeed)
				if v := oplan.Victims(); len(v) == 1 {
					victimSite = v[0]
				} else {
					injected = false // no eligible allocation (degenerate params)
					oplan = nil
				}
			case DetectDangling:
				dplan = fault.PlanDangling(trace, detectDanglingFreq, detectDanglingDist, trialSeed)
				if dplan.Injected == 0 {
					injected = false
					dplan = nil
				}
			case DetectUninit:
				// A victim that is freed (and therefore read) before the
				// workload ends.
				uninit = int(DeriveSeed(trialSeed, 0xBEEF) % uint64(p.Allocs-p.Live))
			}
		}
		rep, crashed, err := runDetectLayout(p, spec.mult, DeriveSeed(trialSeed, 0), oplan, dplan, uninit)
		if err != nil {
			return detectTrialOut{}, err
		}
		if crashed && !injected {
			return detectTrialOut{}, fmt.Errorf("exps: clean detection trial crashed")
		}
		out := detectTrialOut{
			injected: injected,
			// A guard-page crash during an injected run is a detection by
			// the heap itself, counted alongside the canary evidence.
			detected: hasKind(rep, detectKindOf(spec.kind)) || (crashed && injected),
			evidence: len(rep.Evidence),
		}
		if spec.kind == DetectOverflow && injected && out.detected {
			reports := []*detect.Report{rep}
			for l := 1; l < p.Layouts; l++ {
				lr, _, err := runDetectLayout(p, spec.mult, DeriveSeed(trialSeed, l), oplan, dplan, uninit)
				if err != nil {
					return detectTrialOut{}, err
				}
				reports = append(reports, lr)
			}
			tri := detect.Triage(detect.KindOverflow, reports)
			out.triaged = true
			out.localized = tri.Culprit == victimSite
			out.length = tri.OverflowLen
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	table := &DetectionTable{Params: p}
	for ci, spec := range specs {
		cell := DetectCell{Policy: spec.policy, Error: spec.kind, Multiplier: spec.mult, Trials: p.Trials}
		h := fnv.New64a()
		var lenSum int
		for t := 0; t < p.Trials; t++ {
			o := outs[ci*p.Trials+t]
			switch {
			case o.injected && o.detected:
				cell.TruePos++
			case o.injected && !o.detected:
				cell.FalseNeg++
			case !o.injected && o.detected:
				cell.FalsePos++
			default:
				cell.TrueNeg++
			}
			if o.injected {
				cell.Injected++
			}
			if o.triaged {
				cell.TriageTrials++
				if o.localized {
					cell.TriageLocalized++
					lenSum += o.length
				}
			}
			var rec [8]byte
			rec[0] = b2b(o.injected)
			rec[1] = b2b(o.detected)
			rec[2] = b2b(o.triaged)
			rec[3] = b2b(o.localized)
			rec[4] = byte(o.length)
			rec[5] = byte(o.length >> 8)
			rec[6] = byte(o.evidence)
			rec[7] = byte(o.evidence >> 8)
			h.Write(rec[:])
		}
		cell.Precision = ratioOrOne(cell.TruePos, cell.TruePos+cell.FalsePos)
		cell.Recall = ratioOrOne(cell.TruePos, cell.TruePos+cell.FalseNeg)
		if cell.TriageLocalized > 0 {
			cell.MeanOverflowLen = float64(lenSum) / float64(cell.TriageLocalized)
		}
		cell.OutputHash = h.Sum64()
		table.Cells = append(table.Cells, cell)
	}
	return table, nil
}

func b2b(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func ratioOrOne(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// EmpiricalOverflowDetect measures, on real detection heaps, the
// probability that an overflow of `objects` object-widths past a random
// live 64-byte object is caught by the canary sweep, with the class
// filled to the given fraction. Detection requires the damage to touch
// free (canary) space, so the measured rate validates
// analysis.CanaryOverflowDetectProb(fullness, objects) — the detection
// complement of Theorem 1's masking probability.
func EmpiricalOverflowDetect(fullness float64, objects, trials, heapSize int, seed uint64) (float64, error) {
	if fullness <= 0 || fullness > 0.5 {
		return 0, fmt.Errorf("exps: fullness %v outside (0, 1/2]", fullness)
	}
	if objects < 1 {
		return 0, fmt.Errorf("exps: objects must be >= 1")
	}
	const size = 64
	detected := 0
	for t := 0; t < trials; t++ {
		trialSeed := DeriveSeed(seed, t)
		dh, err := detect.New(core.Options{HeapSize: heapSize, Seed: trialSeed}, detect.Options{})
		if err != nil {
			return 0, err
		}
		total, _ := dh.ClassSlots(core.ClassFor(size))
		want := int(fullness * float64(total))
		ptrs := make([]heap.Ptr, want)
		for i := range ptrs {
			p, err := dh.Malloc(size)
			if err != nil {
				return 0, err
			}
			// Fully written live objects: an overflow onto them leaves no
			// canary damage, which is exactly the miss case.
			if err := dh.Mem().Memset(p, byte(0x11+i%7), size); err != nil {
				return 0, err
			}
			ptrs[i] = p
		}
		r := rng.NewSeeded(trialSeed + 1)
		victim := ptrs[r.Intn(want)]
		// Stay inside the subregion: the write must land on slots, not on
		// the guard page or the mapped tail.
		for {
			end := victim + uint64(size*(objects+1)) - 1
			if base, _, _, ok := dh.SlotAt(end); ok && base != 0 {
				break
			}
			victim = ptrs[r.Intn(want)]
		}
		if err := dh.Mem().Memset(victim+size, 0xD0, size*objects); err != nil {
			return 0, err
		}
		if dh.Detector().HeapCheckFull() > 0 {
			detected++
		}
		dh.Close()
	}
	return float64(detected) / float64(trials), nil
}
