package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"diehard/internal/apps"
	"diehard/internal/core"
	"diehard/internal/exps"
	"diehard/internal/heap"
	"diehard/internal/leaalloc"
)

// The paper's DieHard defaults (§7.2): a 384 MB heap at M = 2.
const (
	fig5HeapSize = 384 << 20
	fig5M        = 2
	// refHeapSize is the arena of the baseline allocator that produces
	// the reference outputs.
	refHeapSize = 64 << 20
)

// fig5Inputs holds each kernel's input and the output it must produce.
type fig5Inputs struct {
	inputs [][]byte
	want   []string
}

// comparableOutput drops the part of a kernel's output that legitimately
// depends on stale heap contents: lindsay's final statistic is an
// uninitialized read.
func comparableOutput(app, out string) string {
	if app == "lindsay" {
		if i := strings.LastIndex(out, "tagstat="); i >= 0 {
			return out[:i]
		}
	}
	return out
}

// fig5Reference builds every kernel's input and runs the kernel once on
// the Lea-style malloc baseline: DieHard must produce the same output.
func fig5Reference(registry []apps.App) (*fig5Inputs, error) {
	in := &fig5Inputs{}
	for _, app := range registry {
		input := app.Input(1)
		lea, err := leaalloc.New(leaalloc.Options{HeapSize: refHeapSize})
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		rt := &apps.Runtime{Alloc: lea, Mem: lea.Mem(), Input: input, Out: &out}
		if err := app.Run(rt); err != nil {
			return nil, fmt.Errorf("reference %s: %w", app.Name, err)
		}
		in.inputs = append(in.inputs, input)
		in.want = append(in.want, comparableOutput(app.Name, out.String()))
	}
	return in, nil
}

// fig5Layers accumulates the traced run's per-layer numbers over passes.
type fig5Layers struct {
	malloc, free, word, bulk clock
	overhead                 float64 // ns an empty timed interval costs
	mallocs, probes, retries uint64
	pagesDirty               uint64
}

// runFig5 runs all 17 Figure 5 kernels back to back, each on a fresh
// DieHard heap, for the timed phase, and checks every output.
func runFig5(cfg config, r *report) error {
	registry := apps.Registry()
	var in *fig5Inputs
	var refS []float64
	for i := 0; i < cfg.setupReps(); i++ {
		start := time.Now()
		var err error
		if in, err = fig5Reference(registry); err != nil {
			return err
		}
		refS = append(refS, time.Since(start).Seconds())
	}

	var (
		passS, aiS, buildS, kernelUS []float64
		lay                          = fig5Layers{word: clock{shift: 6}}
		runErr                       error
	)
	if cfg.layers {
		lay.overhead = timerOverheadNS()
	}
	end := cfg.deadline()
	perr := cfg.profileTimed(func() {
		for pass := 0; pass == 0 || (!cfg.tiny && time.Now().Before(end)); pass++ {
			var wall, ai, build time.Duration
			for k, app := range registry {
				runtime.GC() // start every kernel from the same heap state
				start := time.Now()
				h, err := core.New(core.Options{
					HeapSize: fig5HeapSize,
					M:        fig5M,
					Seed:     exps.DeriveSeed(cfg.seed, pass*len(registry)+k),
				})
				if err != nil {
					runErr = err
					return
				}
				build += time.Since(start)

				var out bytes.Buffer
				rt := &apps.Runtime{Alloc: h, Mem: h.Mem(), Input: in.inputs[k], Out: &out}
				if cfg.layers {
					rt.Alloc = timedAlloc{Allocator: h, malloc: &lay.malloc, free: &lay.free}
					rt.Mem = timedMem{Memory: h.Mem(), word: &lay.word, bulk: &lay.bulk}
				}
				start = time.Now()
				err = app.Run(rt)
				d := time.Since(start)

				wall += d
				if app.Kind == apps.AllocIntensive {
					ai += d
				}
				kernelUS = append(kernelUS, float64(d.Nanoseconds())/1e3)
				switch {
				case err != nil:
					r.check(1, 1, "pass %d %s: %v", pass, app.Name, err)
				case comparableOutput(app.Name, out.String()) != in.want[k]:
					r.check(1, 1, "pass %d %s: output differs from the reference", pass, app.Name)
				default:
					r.check(1, 0, "")
				}
				if cfg.layers {
					st := h.Stats()
					lay.mallocs += st.Mallocs
					lay.probes += st.Probes
					lay.retries += st.CASRetries
					lay.pagesDirty += h.Mem().StatsSnapshot().PagesDirty
				}
			}
			passS = append(passS, wall.Seconds())
			aiS = append(aiS, ai.Seconds())
			buildS = append(buildS, build.Seconds())
		}
	})
	if perr != nil {
		return perr
	}
	if runErr != nil {
		return runErr
	}

	passes := float64(len(passS))
	kernels := float64(len(kernelUS))
	// Set-up is the reference outputs plus one pass's worth of heaps.
	r.set("setup_s", median(refS)+median(buildS), "s")
	r.set("wall_s", median(passS), "s")
	r.set("alloc_intensive_s", median(aiS), "s")
	var total float64
	for _, s := range passS {
		total += s
	}
	r.set("sessions_per_s", kernels/total, "1/s")
	r.set("session_p50_us", windowQuantile(kernelUS, sessionWindow, 0.50), "us")
	r.set("session_p99_us", windowQuantile(kernelUS, sessionWindow, 0.99), "us")

	if cfg.layers {
		// Every pass makes the same calls, so the time a pass spends in
		// the layers is its calls times their mean cost; the rest of the
		// pass is the kernels' own work.
		inLayers := 0.0
		for _, c := range []struct {
			name string
			c    *clock
		}{{"core.malloc", &lay.malloc}, {"core.free", &lay.free}, {"vmem.word", &lay.word}, {"vmem.bulk", &lay.bulk}} {
			c.c.report(r, c.name, passes, lay.overhead)
			inLayers += float64(c.c.calls) / passes * c.c.meanNS(lay.overhead) / 1e9
		}
		r.set("apps.self_s", median(passS)-inLayers, "s")
		r.set("core.probes_per_malloc", ratio(lay.probes, lay.mallocs), "count")
		r.set("core.cas_retries_per_malloc", ratio(lay.retries, lay.mallocs), "count")
		r.set("vmem.pages_dirty", float64(lay.pagesDirty)/passes, "count")
	}
	return nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// clock counts the calls into one layer boundary and times a sample of
// them. Timing every one of the ~6M word accesses of a pass would cost
// more than the accesses themselves, so a clock with a sampling shift
// times one call in 2^shift, picked by a Weyl sequence so that periodic
// call patterns do not alias with the sample.
type clock struct {
	shift   uint
	calls   int64
	sampled int64
	ns      int64
}

// begin counts a call and returns its start time if it is sampled.
func (c *clock) begin() time.Time {
	c.calls++
	if uint64(c.calls)*0x9E3779B97F4A7C15>>(64-c.shift) != 0 {
		return time.Time{}
	}
	return time.Now()
}

// end closes a call begin sampled.
func (c *clock) end(t time.Time) {
	if !t.IsZero() {
		c.sampled++
		c.ns += int64(time.Since(t))
	}
}

// meanNS is the mean time per call with the cost of reading the clock
// taken off.
func (c *clock) meanNS(overhead float64) float64 {
	if c.sampled == 0 {
		return 0
	}
	return max(0, float64(c.ns)/float64(c.sampled)-overhead)
}

// timerOverheadNS is the median cost of an empty timed interval, which
// every sampled call also pays.
func timerOverheadNS() float64 {
	xs := make([]float64, 10001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t))
	}
	return median(xs)
}

// report emits calls per unit of work and mean ns per call.
func (c *clock) report(r *report, name string, units, overhead float64) {
	r.set(name+"_calls", float64(c.calls)/units, "count")
	r.set(name+"_ns", c.meanNS(overhead), "ns")
}

// timedAlloc times the allocator calls a kernel makes (the core layer).
type timedAlloc struct {
	heap.Allocator
	malloc, free *clock
}

func (a timedAlloc) Malloc(size int) (heap.Ptr, error) {
	t := a.malloc.begin()
	p, err := a.Allocator.Malloc(size)
	a.malloc.end(t)
	return p, err
}

func (a timedAlloc) Free(p heap.Ptr) error {
	t := a.free.begin()
	err := a.Allocator.Free(p)
	a.free.end(t)
	return err
}

// timedMem times the memory accesses a kernel makes (the vmem layer):
// single-word accesses on one clock, bulk operations on the other.
type timedMem struct {
	heap.Memory
	word, bulk *clock
}

func (m timedMem) Load8(addr uint64) (byte, error) {
	t := m.word.begin()
	v, err := m.Memory.Load8(addr)
	m.word.end(t)
	return v, err
}

func (m timedMem) Store8(addr uint64, v byte) error {
	t := m.word.begin()
	err := m.Memory.Store8(addr, v)
	m.word.end(t)
	return err
}

func (m timedMem) Load32(addr uint64) (uint32, error) {
	t := m.word.begin()
	v, err := m.Memory.Load32(addr)
	m.word.end(t)
	return v, err
}

func (m timedMem) Store32(addr uint64, v uint32) error {
	t := m.word.begin()
	err := m.Memory.Store32(addr, v)
	m.word.end(t)
	return err
}

func (m timedMem) Load64(addr uint64) (uint64, error) {
	t := m.word.begin()
	v, err := m.Memory.Load64(addr)
	m.word.end(t)
	return v, err
}

func (m timedMem) Store64(addr uint64, v uint64) error {
	t := m.word.begin()
	err := m.Memory.Store64(addr, v)
	m.word.end(t)
	return err
}

func (m timedMem) ReadBytes(addr uint64, b []byte) error {
	t := m.bulk.begin()
	err := m.Memory.ReadBytes(addr, b)
	m.bulk.end(t)
	return err
}

func (m timedMem) WriteBytes(addr uint64, b []byte) error {
	t := m.bulk.begin()
	err := m.Memory.WriteBytes(addr, b)
	m.bulk.end(t)
	return err
}

func (m timedMem) Memset(addr uint64, v byte, n int) error {
	t := m.bulk.begin()
	err := m.Memory.Memset(addr, v, n)
	m.bulk.end(t)
	return err
}

func (m timedMem) MemMove(dst, src uint64, n int) error {
	t := m.bulk.begin()
	err := m.Memory.MemMove(dst, src, n)
	m.bulk.end(t)
	return err
}

func (m timedMem) FindByte(addr uint64, c byte, limit int) (int, bool, error) {
	t := m.bulk.begin()
	i, ok, err := m.Memory.FindByte(addr, c, limit)
	m.bulk.end(t)
	return i, ok, err
}
