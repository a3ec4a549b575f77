package exps

import (
	"bytes"
	"fmt"

	"diehard/internal/apps"
	"diehard/internal/fault"
	"diehard/internal/heap"
	"diehard/internal/squid"
)

// InjectionKind selects a §7.3.1 fault-injection experiment.
type InjectionKind string

const (
	// InjectDangling frees selected objects danglingDistance allocations
	// too early (paper: frequency 50%, distance 10).
	InjectDangling InjectionKind = "dangling"
	// InjectOverflow under-allocates selected requests (paper: 1% of
	// requests of 32 bytes or more, by 4 bytes).
	InjectOverflow InjectionKind = "overflow"
)

// The §7.3.1 injection settings.
const (
	danglingFreq     = 0.5  // share of objects freed early
	danglingDistance = 10   // allocations early
	overflowRate     = 0.01 // share of eligible requests under-allocated
	overflowMinSize  = 32   // smallest eligible request, bytes
	overflowDelta    = 4    // under-allocation, bytes
)

// InjectionResult counts trial outcomes, the classification of §7.3.1
// ("espresso crashes in 9 out of 10 runs and enters an infinite loop in
// the tenth").
type InjectionResult struct {
	Trials      int
	Correct     int
	Crashed     int
	WrongOutput int
	Hung        int
	Injected    int // total faults injected across trials
}

// Failures is the number of non-correct runs.
func (r *InjectionResult) Failures() int { return r.Trials - r.Correct }

// injectionWorkLimit bounds each injected run; clean runs use a small
// fraction of it, so exceeding it is a hang (as one of the paper's
// injected runs did).
const injectionWorkLimit = 40_000_000

// injectionSeedBase keys the per-trial seed derivation of the injection
// campaigns (DeriveSeed); recorded so any single trial can be replayed
// from its index.
const injectionSeedBase = 0x7E57AB1E

// trialOutcome classifies one injected run.
type trialOutcome uint8

const (
	trialCorrect trialOutcome = iota
	trialCrashed
	trialWrongOutput
	trialHung
)

// RunFaultInjection reproduces §7.3.1 for one application and allocator,
// injecting faults of the given kind at the paper's settings: a tracing
// run collects the allocation log, a plan draws the faults,
// and `trials` injected runs are classified against the clean run's
// output. Trials are independent — every trial's allocator seed and
// fault plan derive from the trial index — and fan out across `workers`
// goroutines; the aggregated result is identical for any worker count.
func RunFaultInjection(appName, allocKind string, kind InjectionKind, trials, scale, heapSize, workers int) (*InjectionResult, error) {
	app, ok := apps.Get(appName)
	if !ok {
		return nil, fmt.Errorf("exps: unknown app %q", appName)
	}
	if kind != InjectDangling && kind != InjectOverflow {
		return nil, fmt.Errorf("exps: unknown injection kind %q", kind)
	}
	input := app.Input(scale)

	newAlloc := func(seed uint64) (heap.Allocator, error) {
		return NewAllocator(AllocConfig{Kind: allocKind, HeapSize: heapSize, Seed: seed})
	}

	// Reference (clean) run and, for dangling injection, the allocation
	// trace. Allocation time is a property of the program, not the
	// allocator, so one trace serves every trial. Every allocator
	// NewAllocator builds owns its space, so closing the space closes
	// the heap once the run is done with it.
	refAlloc, err := newAlloc(0xC1EA)
	if err != nil {
		return nil, err
	}
	tracer := fault.NewTracer(refAlloc)
	var refOut bytes.Buffer
	rt := &apps.Runtime{Alloc: tracer, Mem: refAlloc.Mem(), Input: input, Out: &refOut, WorkLimit: injectionWorkLimit}
	err = app.Run(rt)
	refAlloc.Mem().Close()
	if err != nil {
		return nil, fmt.Errorf("clean reference run failed: %w", err)
	}
	reference := refOut.String()
	trace := tracer.Trace()

	type trialResult struct {
		outcome  trialOutcome
		injected int
	}
	results, err := MapTrials(trials, workers, func(trial int) (trialResult, error) {
		seed := DeriveSeed(injectionSeedBase, trial)
		base, err := newAlloc(seed)
		if err != nil {
			return trialResult{}, err
		}
		defer base.Mem().Close()
		var alloc heap.Allocator
		injected := func() int { return 0 }
		switch kind {
		case InjectDangling:
			plan := fault.PlanDangling(trace, danglingFreq, danglingDistance, seed)
			alloc = fault.NewDanglingInjector(base, plan)
			injected = func() int { return plan.Injected }
		case InjectOverflow:
			inj := fault.NewOverflowInjector(base, overflowRate, overflowMinSize, overflowDelta, seed)
			alloc = inj
			injected = func() int { return inj.Injected }
		}
		var out bytes.Buffer
		runRT := &apps.Runtime{Alloc: alloc, Mem: base.Mem(), Input: input, Out: &out, WorkLimit: injectionWorkLimit}
		runErr := app.Run(runRT)
		r := trialResult{injected: injected()}
		switch {
		case runErr == apps.ErrHang:
			r.outcome = trialHung
		case runErr != nil:
			r.outcome = trialCrashed
		case out.String() != reference:
			r.outcome = trialWrongOutput
		default:
			r.outcome = trialCorrect
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	res := &InjectionResult{Trials: trials}
	for _, r := range results {
		res.Injected += r.injected
		switch r.outcome {
		case trialCorrect:
			res.Correct++
		case trialCrashed:
			res.Crashed++
		case trialWrongOutput:
			res.WrongOutput++
		case trialHung:
			res.Hung++
		}
	}
	return res, nil
}

// SquidResult reports the §7.3 real-fault experiment for one allocator.
type SquidResult struct {
	Allocator string
	Trials    int
	Survived  int
	Crashed   int
}

// RunSquidExperiment reproduces the §7.3 "Real Faults" study: the buggy
// web cache is fed the ill-formed input under each allocator. The
// GNU-libc and BDW baselines crash; DieHard survives (probabilistically,
// hence multiple seeded trials). The (allocator, trial) grid fans out
// across the campaign worker pool with per-trial derived seeds.
func RunSquidExperiment(allocKinds []string, trials, requests, heapSize, workers int) ([]SquidResult, error) {
	input := squid.IllFormedInput(requests)
	survived, err := MapTrials(len(allocKinds)*trials, workers, func(i int) (bool, error) {
		kind := allocKinds[i/trials]
		trial := i % trials
		alloc, err := NewAllocator(AllocConfig{
			Kind: kind, HeapSize: heapSize, Seed: DeriveSeed(0x5001D, trial),
		})
		if err != nil {
			return false, err
		}
		defer alloc.Mem().Close()
		var out bytes.Buffer
		rt := &apps.Runtime{Alloc: alloc, Mem: alloc.Mem(), Input: input, Out: &out, WorkLimit: injectionWorkLimit}
		return squid.Run(rt, squid.Options{}) == nil, nil
	})
	if err != nil {
		return nil, err
	}
	var results []SquidResult
	for k, kind := range allocKinds {
		r := SquidResult{Allocator: kind, Trials: trials}
		for t := 0; t < trials; t++ {
			if survived[k*trials+t] {
				r.Survived++
			} else {
				r.Crashed++
			}
		}
		results = append(results, r)
	}
	return results, nil
}
