// Package fault implements the fault-injection methodology of §7.3.1:
// libraries that inject memory errors into unaltered (simulated)
// applications.
//
// The protocol follows the paper exactly. A first run under the tracing
// allocator produces an allocation log: for every object, when it was
// allocated and when it was freed, both in allocation time (the number
// of allocations performed so far). A fault-injection plan is then drawn
// from that log: to inject dangling-pointer errors, selected objects are
// freed `distance` allocations earlier than the program intends, and the
// program's real free of that object is ignored; to inject buffer
// overflows, selected allocation requests are under-allocated so the
// application's writes run past the end of the object.
//
// Because the evaluation applications are deterministic, the log from
// the tracing run aligns exactly with the injection run.
package fault

import (
	"fmt"
	"sort"

	"diehard/internal/heap"
	"diehard/internal/rng"
)

// Lifetime records one object's allocation history in allocation time.
type Lifetime struct {
	ID        int // allocation index (0-based)
	Size      int
	AllocTime int // == ID: time of the allocation itself
	FreeTime  int // allocation time at which the program freed it; -1 if never
}

// Trace is an allocation log produced by a Tracer run.
type Trace struct {
	Lifetimes []Lifetime
}

// Tracer wraps an allocator and records the allocation log, leaving
// behavior otherwise unchanged.
type Tracer struct {
	heap.Allocator // the wrapped allocator: SizeOf, Mem, Stats pass through
	trace          Trace
	ptrToID        map[heap.Ptr]int
	clock          int // allocation time
}

var _ heap.Allocator = (*Tracer)(nil)

// NewTracer wraps base with allocation logging.
func NewTracer(base heap.Allocator) *Tracer {
	return &Tracer{Allocator: base, ptrToID: make(map[heap.Ptr]int)}
}

// Malloc allocates and logs the object.
func (t *Tracer) Malloc(size int) (heap.Ptr, error) {
	p, err := t.Allocator.Malloc(size)
	if err != nil {
		return p, err
	}
	id := t.clock
	t.clock++
	t.trace.Lifetimes = append(t.trace.Lifetimes, Lifetime{
		ID: id, Size: size, AllocTime: id, FreeTime: -1,
	})
	t.ptrToID[p] = id
	return p, nil
}

// Free logs the free time of the object and forwards it.
func (t *Tracer) Free(p heap.Ptr) error {
	if id, ok := t.ptrToID[p]; ok {
		t.trace.Lifetimes[id].FreeTime = t.clock
		delete(t.ptrToID, p)
	}
	return t.Allocator.Free(p)
}

// Name identifies the tracer in reports.
func (t *Tracer) Name() string { return t.Allocator.Name() + "+trace" }

// Trace returns the log collected so far.
func (t *Tracer) Trace() *Trace { return &t.trace }

// DanglingPlan selects the objects to free prematurely: each object that
// lives at least distance allocations is chosen independently with
// probability freq ("frequency of 50% with distance 10: one out of every
// two objects is freed ten allocations too early").
type DanglingPlan struct {
	// earlyFrees maps an allocation-time tick to the IDs to free when
	// the allocation counter reaches it.
	earlyFrees map[int][]int
	// victim reports whether an ID's real free must be ignored.
	victim map[int]bool
	// Injected is the number of planned premature frees.
	Injected int
}

// PlanDangling draws a dangling-error plan from a trace.
func PlanDangling(trace *Trace, freq float64, distance int, seed uint64) *DanglingPlan {
	if freq < 0 || freq > 1 {
		panic(fmt.Sprintf("fault: frequency %v out of [0,1]", freq))
	}
	r := rng.NewSeeded(seed)
	plan := &DanglingPlan{
		earlyFrees: make(map[int][]int),
		victim:     make(map[int]bool),
	}
	for _, lt := range trace.Lifetimes {
		if lt.FreeTime < 0 || lt.FreeTime-lt.AllocTime <= distance {
			continue // never freed, or would be freed before/at allocation
		}
		if r.Float64() >= freq {
			continue
		}
		early := lt.FreeTime - distance
		plan.earlyFrees[early] = append(plan.earlyFrees[early], lt.ID)
		plan.victim[lt.ID] = true
		plan.Injected++
	}
	return plan
}

// Victims returns the allocation IDs selected for premature freeing, in
// ascending order. The detection campaigns (exps.RunDetectionTable)
// grade the canary detector's culprit attribution against this ground
// truth.
func (p *DanglingPlan) Victims() []int {
	ids := make([]int, 0, len(p.victim))
	for id := range p.victim {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// DanglingInjector replays a program against a base allocator while
// executing a DanglingPlan: victims are freed early and their real frees
// are swallowed.
type DanglingInjector struct {
	heap.Allocator // the wrapped allocator: SizeOf, Mem, Stats pass through
	plan           *DanglingPlan
	clock          int
	idToPtr        map[int]heap.Ptr
	ptrToID        map[heap.Ptr]int

	// EarlyFrees counts premature frees performed so far.
	EarlyFrees int
	// SwallowedFrees counts real frees ignored because their object was
	// already freed by the injector.
	SwallowedFrees int
}

var _ heap.Allocator = (*DanglingInjector)(nil)

// NewDanglingInjector wraps base with the plan.
func NewDanglingInjector(base heap.Allocator, plan *DanglingPlan) *DanglingInjector {
	return &DanglingInjector{
		Allocator: base,
		plan:      plan,
		idToPtr:   make(map[int]heap.Ptr),
		ptrToID:   make(map[heap.Ptr]int),
	}
}

// Malloc allocates, then fires any premature frees scheduled at the new
// allocation time.
func (d *DanglingInjector) Malloc(size int) (heap.Ptr, error) {
	p, err := d.Allocator.Malloc(size)
	if err != nil {
		return p, err
	}
	id := d.clock
	d.clock++
	d.idToPtr[id] = p
	d.ptrToID[p] = id
	for _, victim := range d.plan.earlyFrees[d.clock] {
		vp, ok := d.idToPtr[victim]
		if !ok {
			continue // trace misalignment; deterministic programs never hit this
		}
		if err := d.Allocator.Free(vp); err != nil {
			return heap.Null, err
		}
		d.EarlyFrees++
	}
	return p, nil
}

// Free forwards the free unless the object was already freed early, in
// which case the call is swallowed (the injection library "ignores the
// subsequent (actual) call to free this object").
func (d *DanglingInjector) Free(p heap.Ptr) error {
	id, ok := d.ptrToID[p]
	if ok {
		delete(d.ptrToID, p)
		delete(d.idToPtr, id)
		if d.plan.victim[id] {
			d.SwallowedFrees++
			return nil
		}
	}
	return d.Allocator.Free(p)
}

// Name identifies the injector in reports.
func (d *DanglingInjector) Name() string { return d.Allocator.Name() + "+dangling" }

// OverflowInjector injects buffer overflows by under-allocation: with
// probability rate, a request of at least minSize bytes is shrunk by
// delta bytes before reaching the allocator, so the application's writes
// of the full requested size overflow the object (§7.3.1: "it requests
// less memory from the underlying allocator than was requested by the
// application").
type OverflowInjector struct {
	heap.Allocator // the wrapped allocator: SizeOf, Mem, Stats and Free pass through
	rate           float64
	minSize        int
	delta          int
	r              *rng.MWC

	// Injected counts under-allocated requests.
	Injected int
}

var _ heap.Allocator = (*OverflowInjector)(nil)

// NewOverflowInjector wraps base with under-allocation injection.
// The paper's experiment uses rate 0.01, minSize 32, delta 4.
func NewOverflowInjector(base heap.Allocator, rate float64, minSize, delta int, seed uint64) *OverflowInjector {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("fault: rate %v out of [0,1]", rate))
	}
	return &OverflowInjector{
		Allocator: base,
		rate:      rate,
		minSize:   minSize,
		delta:     delta,
		r:         rng.NewSeeded(seed),
	}
}

// Malloc under-allocates selected requests.
func (o *OverflowInjector) Malloc(size int) (heap.Ptr, error) {
	if size >= o.minSize && o.r.Float64() < o.rate {
		o.Injected++
		size -= o.delta
	}
	return o.Allocator.Malloc(size)
}

// Name identifies the injector in reports.
func (o *OverflowInjector) Name() string { return o.Allocator.Name() + "+overflow" }

// OverflowPlan selects, by allocation ID drawn from a trace, the exact
// requests to under-allocate. Unlike OverflowInjector's independent
// coin flips, a plan makes the injected error sites known ground truth:
// the detection campaigns (exps.RunDetectionTable) grade the canary
// detector's culprit attribution against Victims.
type OverflowPlan struct {
	victim  map[int]bool
	victims []int
	// MinSize and Delta are the eligibility floor and the
	// under-allocation amount, recorded for the injector.
	MinSize int
	Delta   int
}

// PlanOverflow chooses count victims uniformly without replacement from
// the trace's allocations of at least minSize bytes, each to be
// under-allocated by delta bytes. Deterministic in (trace, seed); if
// fewer than count allocations are eligible, all of them are chosen.
func PlanOverflow(trace *Trace, count, minSize, delta int, seed uint64) *OverflowPlan {
	r := rng.NewSeeded(seed)
	var eligible []int
	for _, lt := range trace.Lifetimes {
		if lt.Size >= minSize {
			eligible = append(eligible, lt.ID)
		}
	}
	if count > len(eligible) {
		count = len(eligible)
	}
	// Partial Fisher-Yates: the first count entries end up a uniform
	// sample without replacement.
	for i := 0; i < count; i++ {
		j := i + r.Intn(len(eligible)-i)
		eligible[i], eligible[j] = eligible[j], eligible[i]
	}
	plan := &OverflowPlan{victim: make(map[int]bool, count), MinSize: minSize, Delta: delta}
	plan.victims = append(plan.victims, eligible[:count]...)
	sort.Ints(plan.victims)
	for _, id := range plan.victims {
		plan.victim[id] = true
	}
	return plan
}

// Victims returns the selected allocation IDs in ascending order.
func (p *OverflowPlan) Victims() []int { return append([]int(nil), p.victims...) }

// IsVictim reports whether allocation id is planned for under-allocation.
func (p *OverflowPlan) IsVictim(id int) bool { return p.victim[id] }

// PlannedOverflowInjector under-allocates exactly the planned victim
// requests, so every injected overflow's allocation site is known.
type PlannedOverflowInjector struct {
	heap.Allocator // the wrapped allocator: SizeOf, Mem, Stats and Free pass through
	plan           *OverflowPlan
	clock          int

	// Injected counts under-allocated requests.
	Injected int
}

var _ heap.Allocator = (*PlannedOverflowInjector)(nil)

// NewPlannedOverflowInjector wraps base with the plan.
func NewPlannedOverflowInjector(base heap.Allocator, plan *OverflowPlan) *PlannedOverflowInjector {
	return &PlannedOverflowInjector{Allocator: base, plan: plan}
}

// Malloc under-allocates the planned victims.
func (o *PlannedOverflowInjector) Malloc(size int) (heap.Ptr, error) {
	id := o.clock
	o.clock++
	if o.plan.victim[id] && size >= o.plan.MinSize {
		o.Injected++
		size -= o.plan.Delta
	}
	return o.Allocator.Malloc(size)
}

// Name identifies the injector in reports.
func (o *PlannedOverflowInjector) Name() string { return o.Allocator.Name() + "+overflow-plan" }
