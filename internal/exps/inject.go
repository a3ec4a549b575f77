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
	// InjectDangling frees selected objects `Distance` allocations too
	// early (paper: frequency 50%, distance 10).
	InjectDangling InjectionKind = "dangling"
	// InjectOverflow under-allocates selected requests (paper: 1% of
	// requests of 32 bytes or more, by 4 bytes).
	InjectOverflow InjectionKind = "overflow"
)

// InjectionParams parameterizes an injection run; zero values select
// the paper's settings.
type InjectionParams struct {
	Kind     InjectionKind
	Freq     float64 // dangling selection probability (default 0.5)
	Distance int     // allocations early (default 10)
	Rate     float64 // overflow probability (default 0.01)
	MinSize  int     // overflow minimum request (default 32)
	Delta    int     // overflow under-allocation (default 4)
}

func (p *InjectionParams) defaults() {
	if p.Freq == 0 {
		p.Freq = 0.5
	}
	if p.Distance == 0 {
		p.Distance = 10
	}
	if p.Rate == 0 {
		p.Rate = 0.01
	}
	if p.MinSize == 0 {
		p.MinSize = 32
	}
	if p.Delta == 0 {
		p.Delta = 4
	}
}

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

// RunFaultInjection reproduces §7.3.1 for one application and allocator:
// a tracing run collects the allocation log, a plan draws the faults,
// and `trials` injected runs are classified against the clean run's
// output. Trials are independent — every trial's allocator seed and
// fault plan derive from the trial index — and fan out across `workers`
// goroutines; the aggregated result is identical for any worker count.
func RunFaultInjection(appName, allocKind string, params InjectionParams, trials, scale, heapSize, workers int) (*InjectionResult, error) {
	params.defaults()
	app, ok := apps.Get(appName)
	if !ok {
		return nil, fmt.Errorf("exps: unknown app %q", appName)
	}
	if params.Kind != InjectDangling && params.Kind != InjectOverflow {
		return nil, fmt.Errorf("exps: unknown injection kind %q", params.Kind)
	}
	input := app.Input(scale)

	newAlloc := func(seed uint64) (heap.Allocator, error) {
		return NewAllocator(AllocConfig{Kind: allocKind, HeapSize: heapSize, Seed: seed})
	}

	// Reference (clean) run and, for dangling injection, the allocation
	// trace. Allocation time is a property of the program, not the
	// allocator, so one trace serves every trial.
	refAlloc, err := newAlloc(0xC1EA)
	if err != nil {
		return nil, err
	}
	tracer := fault.NewTracer(refAlloc)
	var refOut bytes.Buffer
	rt := &apps.Runtime{Alloc: tracer, Mem: refAlloc.Mem(), Input: input, Out: &refOut, WorkLimit: injectionWorkLimit}
	if err := app.Run(rt); err != nil {
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
		var alloc heap.Allocator
		injected := func() int { return 0 }
		switch params.Kind {
		case InjectDangling:
			plan := fault.PlanDangling(trace, params.Freq, params.Distance, seed)
			alloc = fault.NewDanglingInjector(base, plan)
			injected = func() int { return plan.Injected }
		case InjectOverflow:
			inj := fault.NewOverflowInjector(base, params.Rate, params.MinSize, params.Delta, seed)
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
