// Package serve soaks the concurrent allocator stack as a service:
// worker goroutines process simulated sessions — a burst of mallocs
// with a skewed size mix, a word-sized access to every object, and a
// split of local frees (through the worker's magazine) and cross-worker
// frees (handed to a neighbor and routed back through the sharded front
// door, synchronously or via the remote-free rings) — and every session
// is graded on its end-to-end malloc+access+free latency.
//
// Arrivals are open-loop (DESIGN.md §12): each worker draws Poisson
// inter-arrival gaps, optionally modulated by bursts, and a session's
// latency is measured from its scheduled arrival, not from when the
// worker got to it — so queueing delay under load shows up in the tail
// percentiles instead of silently stretching the run, the way a
// closed-loop harness would hide it. Rate = 0 degenerates to a
// closed-loop saturation soak (pure service time, maximum throughput).
//
// The harness may also inject DieHard-ignorable errors (double frees
// and wild frees) at a configured rate, so long soaks exercise the
// §4.3 ignore paths under full concurrency; the run fails if
// CheckInvariants finds anything wrong afterwards.
package serve

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"diehard/internal/core"
	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/rng"
)

// FreeMode selects how cross-worker frees travel back to the heap.
type FreeMode int

const (
	// FreeSync routes cross-worker frees through ShardedHeap.Free: the
	// freeing worker CAS-clears the owner shard's bitmap itself.
	FreeSync FreeMode = iota
	// FreeRemote routes them through ShardedHeap.RemoteFree: the
	// freeing worker enqueues on the owner's remote-free ring and the
	// owner applies the clear at its next drain.
	FreeRemote
)

// Config parameterizes a soak. The zero value is not runnable: Sessions
// must be positive. Everything else defaults sensibly.
type Config struct {
	// Shards is the ShardedHeap width (default 4).
	Shards int
	// Workers is the number of session-serving goroutines (default
	// Shards). Each owns a magazine and a latency histogram.
	Workers int
	// HeapSize is the total heap across shards (default 32 MB/shard).
	HeapSize int
	// Seed fixes the randomized layout and the workload streams.
	Seed uint64
	// Sessions is the total session count across all workers.
	Sessions int64
	// Rate is the total arrival rate in sessions/sec across all
	// workers — the long-run mean including burst mass, so bursts
	// clump arrivals without raising the offered load. 0 runs
	// closed-loop saturation (no pacing).
	Rate float64
	// BurstProb, with Rate > 0, is the per-draw probability that the
	// arrival process emits a burst of BurstLen back-to-back sessions
	// (zero gap) instead of one Poisson-spaced arrival.
	BurstProb float64
	// BurstLen is the burst size (default 32 when BurstProb > 0).
	BurstLen int
	// CrossFraction of each session's objects are freed by the next
	// worker instead of the allocating one (default 0.25).
	CrossFraction float64
	// FreeMode routes those cross-worker frees (default FreeSync).
	FreeMode FreeMode
	// ErrorRate is the per-session probability of injecting one double
	// free and one wild free through the cross-free path. On untagged
	// heaps both are DieHard-ignorable; on GenTags runs the double free
	// is rejected exactly (StaleFrees) and the wild free ignored exactly
	// (IgnoredFrees) — Result.DoubleFrees/WildFrees record the injected
	// ground truth the tests balance against.
	ErrorRate float64
	// GenTags runs the soak on a generation-tagged heap (DESIGN.md §15):
	// sessions allocate and free locally through the worker's magazine
	// with fat pointers (Magazine.MallocFat/FreeFat), and cross-worker
	// frees go through FreeFat or RemoteFreeFat per FreeMode, each free
	// carrying its tag to the owner's gen-checked arbiter. Free
	// accounting becomes exact: a double free that straddles a
	// reallocation is still caught. Mutually exclusive with Faults (the
	// token-verified fault soak frees thin pointers).
	GenTags bool
	// Faults, when set, embeds a planned fault schedule in every
	// worker's session loop (the supervisor-facing soak of DESIGN.md
	// §13): object sizes become fixed so the per-object index is a
	// stable allocation site, session objects are token-verified at
	// free, and corrupted tokens are counted (Result.Corruptions) rather
	// than failing the run. Mutually exclusive with ErrorRate, whose
	// injected double frees would trip the verification.
	Faults *FaultPlan
	// Mitigate, when set with Faults, consults the supervisor's live
	// countermeasure table: per-object-index overallocation pads added
	// to the malloc size, and per-index free quarantine, which frees
	// through ShardedHeap.Quarantine so the owning shard's core
	// quarantine holds the slot out of reuse. The run flushes every
	// shard's quarantine after the workers join, so FullnessEnd still
	// measures drift. heal.Mitigations implements it.
	Mitigate Mitigator
	// Obs, when non-nil, receives the soak's slice of the unified
	// metrics tree: the shard aggregate and per-shard core.* gauges,
	// the vmem.* gauges of the shared address space, per-worker
	// serve.session_ns histograms, a serve.sessions counter, and — on
	// fault-scheduled runs — heal.corruptions / heal.quarantined_frees
	// counters. Registration happens before the first session, so the
	// tree can be scraped live while the soak runs.
	Obs *obs.Registry
	// Trace, when non-nil, attaches the flight recorder: worker i
	// emits on ring i (EvSession latencies, EvFault injections) and its
	// magazine traces refills/flushes there; shard heaps ride rings
	// 100+shard and the steal router ring 100+Shards (core's malloc/
	// free/quarantine/drain/steal events). Nil leaves every hot path at
	// its single disabled-check branch.
	Trace *obs.Recorder
}

// Mitigator is the live countermeasure view a fault-scheduled soak
// consults: Pad is extra bytes to over-allocate for an object index,
// Quarantined whether its frees are diverted into delayed reuse.
// Implementations must be safe for concurrent use by all workers.
type Mitigator interface {
	Pad(site int) int
	Quarantined(site int) bool
}

// StaticMitigator returns a fixed Mitigator over the given pad and
// quarantine tables — the countermeasures a supervisor would have
// installed, applied from session one. Nil maps are empty tables.
// Useful for smoke gates and tests that need a mitigated soak without
// running the heal loop.
func StaticMitigator(pads map[int]int, quar map[int]bool) Mitigator {
	return staticMitigator{pads: pads, quar: quar}
}

type staticMitigator struct {
	pads map[int]int
	quar map[int]bool
}

func (m staticMitigator) Pad(site int) int          { return m.pads[site] }
func (m staticMitigator) Quarantined(site int) bool { return m.quar[site] }

// FaultPlan is a planned per-worker fault schedule, indexed by the
// object's position within a session — the identity that is stable
// across sessions, workers, and layouts. The injected writes simulate
// application bugs: they go straight to memory, bypassing the
// allocator, exactly as a buggy C program would.
type FaultPlan struct {
	// ObjectSize is the fixed request size for every session object
	// (default 48; faults need deterministic geometry).
	ObjectSize int
	// OverflowObject, when >= 0, writes OverflowReach bytes past its
	// requested end on every OverflowEvery-th session of each worker.
	OverflowObject int
	OverflowReach  int
	OverflowEvery  int64
	// DanglingObject, when >= 0, is freed during its session and written
	// through the stale pointer after the *next* session's allocations
	// have had a chance to recycle the slot.
	DanglingObject int
	DanglingEvery  int64
}

// Result is the grade sheet of one soak.
type Result struct {
	Sessions       int64
	Elapsed        time.Duration
	SessionsPerSec float64
	// P50/P99/P999 are session latencies in nanoseconds: scheduled
	// arrival to completion (malloc + access + free + queueing).
	P50, P99, P999 int64
	Hist           *obs.Histogram
	// FullnessEnd is live objects over the aggregate 1/M threshold
	// after magazines closed and rings drained — the heap-fullness
	// drift from the empty start. A leak-free soak ends at 0.
	FullnessEnd float64
	Stats       heap.Stats
	// Corruptions counts session objects whose token failed verification
	// at free (Faults runs only); MTBFSessions is sessions per
	// corruption, the soak's mean-sessions-between-failures grade.
	// QuarantinedFrees counts the frees the shards' quarantines held on
	// the Mitigator's orders (Stats.Quarantined).
	Corruptions      int64
	MTBFSessions     float64
	QuarantinedFrees int64
	// DoubleFrees and WildFrees count the ErrorRate injections actually
	// performed — the ground truth a GenTags soak balances exactly
	// against Stats.StaleFrees and Stats.IgnoredFrees.
	DoubleFrees int64
	WildFrees   int64
}

const crossBatch = 64

// sessionObjects is the number of objects a session allocates,
// accesses, and frees.
const sessionObjects = 16

// shardRingBase is the flight-recorder worker-id convention: serve
// workers own rings 0..Workers-1, shard heap i rides ring
// shardRingBase+i, and the steal router ring shardRingBase+Shards —
// so a merged timeline attributes every event unambiguously. (The
// heal supervisor uses ring 200; see cmd/heal.)
const shardRingBase = 100

// worker objects travel as fat pointers; untagged runs carry Gen 0.
type worker struct {
	id      int
	sh      *core.ShardedHeap
	mag     *core.Magazine
	mem     heap.Memory
	r       *rng.MWC
	hist    obs.Histogram
	mode    FreeMode
	inbox   chan []heap.FatPtr
	out     chan []heap.FatPtr // the next worker's inbox
	cross   []heap.FatPtr      // outgoing batch under accumulation
	spare   []heap.FatPtr      // a drained inbox batch, reused as the next outgoing one
	doubles int64              // ErrorRate double frees injected
	wilds   int64              // ErrorRate wild frees injected

	// Fault-schedule state (cfg.Faults runs only).
	sessionN    int64    // sessions served, the fault schedule's clock
	stale       heap.Ptr // prematurely freed pointer awaiting its stale write
	corruptions int64

	// Telemetry handles; all nil-safe, so the zero worker is silent.
	ring       *obs.Ring    // flight-recorder ring (worker id = w.id)
	ctrSess    *obs.Counter // serve.sessions
	ctrCorrupt *obs.Counter // heal.corruptions (Faults runs)
	ctrQuar    *obs.Counter // heal.quarantined_frees (Faults runs)
}

// skewedSize draws from the session size mix: mostly small objects,
// a medium band, and a thin large tail — four size classes apart, so
// cross-class contention and per-class magazine traffic both happen.
func skewedSize(r *rng.MWC) int {
	switch p := r.Intn(100); {
	case p < 55:
		return 16 + r.Intn(49) // 16–64 B
	case p < 85:
		return 128 + r.Intn(385) // 128–512 B
	case p < 97:
		return 1024 + r.Intn(1025) // 1–2 KB
	default:
		return 4096 + r.Intn(4097) // 4–8 KB
	}
}

// expGap draws a Poisson inter-arrival gap for the given per-worker
// rate (arrivals/sec).
func expGap(r *rng.MWC, rate float64) time.Duration {
	u := float64(r.Next64()>>11) / float64(uint64(1)<<53)
	if u <= 0 {
		u = 1.0 / float64(uint64(1)<<53)
	}
	return time.Duration(-math.Log(u) / rate * float64(time.Second))
}

// freeBatch returns a batch of foreign objects through the configured
// cross-free route, each fat free carrying its generation to the
// owner's arbiter. A rejected free (a stale tag) is an expected outcome
// on error-injected runs, not a harness error — the stats balance
// asserts the exact count afterwards.
func (w *worker) freeBatch(b []heap.FatPtr) error {
	for _, o := range b {
		var err error
		switch {
		case w.mode == FreeRemote && o.Gen != 0:
			_, err = w.sh.RemoteFreeFat(o)
		case w.mode == FreeRemote:
			err = w.sh.RemoteFree(o.Addr)
		case o.Gen != 0:
			_, err = w.sh.FreeFat(o)
		default:
			err = w.sh.Free(o.Addr)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// sendCross hands the accumulated batch to the neighbor, or frees it
// locally if the neighbor's inbox is saturated — the handoff must never
// block, or two full inboxes would deadlock the ring of workers. The
// next batch reuses a drained one, so steady cross traffic allocates
// nothing.
func (w *worker) sendCross() error {
	b := w.cross
	select {
	case w.out <- b:
		w.cross, w.spare = w.spare, nil
		if w.cross == nil {
			w.cross = make([]heap.FatPtr, 0, crossBatch)
		}
		return nil
	default:
		w.cross = b[:0]
		return w.freeBatch(b)
	}
}

// session serves one arrival: allocate, touch, and free a skewed mix of
// objects through the worker's magazine, draining any cross-freed
// batches that showed up meanwhile. On GenTags runs every free carries
// its tag, so an ErrorRate double free is rejected exactly (the
// session's own later free of the victim becomes the stale replay) and
// a wild interior free is ignored exactly, whichever route frees them
// and whoever the slot belongs to by then. With cfg.Faults, sizes are
// fixed (plus any Mitigator pad), the planned faults are injected, and
// every object's token is verified at free.
func (w *worker) session(cfg *Config, objs []heap.FatPtr) error {
	fp := cfg.Faults
	objs = objs[:0]
	for i := 0; i < sessionObjects; i++ {
		size := 0
		if fp != nil {
			size = fp.ObjectSize
			if cfg.Mitigate != nil {
				size += cfg.Mitigate.Pad(i)
			}
		} else {
			size = skewedSize(w.r)
		}
		var o heap.FatPtr
		var err error
		if cfg.GenTags {
			o, err = w.mag.MallocFat(size)
		} else {
			o.Addr, err = w.mag.Malloc(size)
		}
		if err != nil {
			return fmt.Errorf("worker %d malloc: %w", w.id, err)
		}
		p := o.Addr
		// The access leg: every object is written and read back, so a
		// placement bug surfaces as a data mismatch, not just a stat.
		if err := w.mem.Store64(uint64(p), uint64(p)^0xd1e); err != nil {
			return fmt.Errorf("worker %d store: %w", w.id, err)
		}
		v, err := w.mem.Load64(uint64(p))
		if err != nil {
			return fmt.Errorf("worker %d load: %w", w.id, err)
		}
		if v != uint64(p)^0xd1e {
			return fmt.Errorf("worker %d: object %#x read back %#x", w.id, p, v)
		}
		objs = append(objs, o)
	}
	if fp != nil {
		w.sessionN++
		if w.stale != heap.Null {
			// The stale write lands a full allocation phase after the
			// premature free: the slot may belong to a fresh object now —
			// unless quarantine held it out of the probe stream. Write
			// errors are part of the fault, not of the harness.
			_ = w.mem.WriteBytes(uint64(w.stale), staleJunk[:])
			if w.ring != nil {
				w.ring.Emit(obs.EvFault, uint64(w.stale))
			}
			w.stale = heap.Null
		}
		if fp.OverflowObject >= 0 && fp.OverflowEvery > 0 && w.sessionN%fp.OverflowEvery == 0 {
			// Past the *requested* end: a pad enlarges the slot under the
			// object without changing where the buggy write lands.
			base := uint64(objs[fp.OverflowObject].Addr) + uint64(fp.ObjectSize)
			junk := make([]byte, fp.OverflowReach)
			for i := range junk {
				junk[i] = 0xEE
			}
			_ = w.mem.WriteBytes(base, junk)
			if w.ring != nil {
				w.ring.Emit(obs.EvFault, base)
			}
		}
		if fp.DanglingObject >= 0 && fp.DanglingEvery > 0 && w.sessionN%fp.DanglingEvery == 0 {
			p := objs[fp.DanglingObject].Addr
			w.stale = p
			objs[fp.DanglingObject] = heap.FatPtr{}
			if err := w.freeFaulted(cfg, fp.DanglingObject, p); err != nil {
				return err
			}
		}
	}
	select {
	case b := <-w.inbox:
		if err := w.freeBatch(b); err != nil {
			return err
		}
		w.spare = b[:0]
	default:
	}
	if cfg.ErrorRate > 0 && float64(w.r.Intn(1<<20))/(1<<20) < cfg.ErrorRate {
		// One double free (the victim is freed again below — exactly
		// one of the two may win; on GenTags runs the later one replays
		// a dead tag and must lose, even if the slot has been
		// reallocated by then) and one wild interior free, which reuses
		// the victim's tag on a misaligned address.
		victim := objs[w.r.Intn(len(objs))]
		if err := w.freeBatch([]heap.FatPtr{victim, {Addr: victim.Addr + 3, Gen: victim.Gen}}); err != nil {
			return err
		}
		w.doubles++
		w.wilds++
	}
	crossN := int(cfg.CrossFraction * sessionObjects)
	for i, o := range objs {
		if o.Addr == heap.Null {
			continue // prematurely freed by the fault schedule
		}
		if fp != nil {
			if err := w.freeFaulted(cfg, i, o.Addr); err != nil {
				return err
			}
			continue
		}
		if i < crossN {
			w.cross = append(w.cross, o)
			if len(w.cross) >= crossBatch {
				if err := w.sendCross(); err != nil {
					return err
				}
			}
			continue
		}
		var err error
		if o.Gen != 0 {
			_, err = w.mag.FreeFat(o)
		} else {
			err = w.mag.Free(o.Addr)
		}
		if err != nil {
			return fmt.Errorf("worker %d free: %w", w.id, err)
		}
	}
	return nil
}

// staleJunk is the byte pattern a stale write smears over a freed
// object's first word.
var staleJunk = [8]byte{0xDD, 0xDD, 0xDD, 0xDD, 0xDD, 0xDD, 0xDD, 0xDD}

// freeFaulted retires one object of a fault-scheduled session: verify
// its token (a mismatch is a corruption — the invariant failure MTBF
// counts — never a run failure), then either free it or, when the
// Mitigator quarantines its index, hold it in the owning shard's
// quarantine so the slot stays out of the probe stream.
func (w *worker) freeFaulted(cfg *Config, i int, p heap.Ptr) error {
	if v, err := w.mem.Load64(uint64(p)); err != nil || v != uint64(p)^0xd1e {
		w.corruptions++
		w.ctrCorrupt.Inc()
	}
	if cfg.Mitigate != nil && cfg.Mitigate.Quarantined(i) {
		w.ctrQuar.Inc()
		if err := w.sh.Quarantine(p); err != nil {
			return fmt.Errorf("worker %d quarantine: %w", w.id, err)
		}
		return nil
	}
	if err := w.mag.Free(p); err != nil {
		return fmt.Errorf("worker %d free: %w", w.id, err)
	}
	return nil
}

// run is one worker's lifetime: the paced session loop, then (after
// every worker has stopped producing) a drain of the inbox and the
// magazine teardown.
func (w *worker) run(cfg *Config, quota int64, sessions *sync.WaitGroup, errOut *error, errMu *sync.Mutex) {
	fail := func(err error) {
		errMu.Lock()
		if *errOut == nil {
			*errOut = err
		}
		errMu.Unlock()
	}
	// Rate is the mean arrival rate including burst mass: a burst
	// emits BurstLen sessions per gap draw, so draws are spaced
	// burstFactor wider to keep the long-run mean at Rate — bursts
	// redistribute arrivals into clumps, they do not overload the run.
	burstFactor := 1.0
	if cfg.BurstProb > 0 {
		burstFactor = 1 + cfg.BurstProb*float64(cfg.BurstLen-1)
	}
	drawRate := cfg.Rate / float64(cfg.Workers) / burstFactor
	objs := make([]heap.FatPtr, 0, sessionObjects)
	next := time.Now()
	burst := 0
	for s := int64(0); s < quota; s++ {
		arrival := time.Now()
		if cfg.Rate > 0 {
			if burst > 0 {
				burst--
			} else {
				if cfg.BurstProb > 0 && float64(w.r.Intn(1<<20))/(1<<20) < cfg.BurstProb {
					burst = cfg.BurstLen - 1
				}
				next = next.Add(expGap(w.r, drawRate))
			}
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			arrival = next
		}
		if err := w.session(cfg, objs); err != nil {
			fail(err)
			break
		}
		lat := time.Since(arrival).Nanoseconds()
		w.hist.Record(lat)
		if w.ring != nil {
			w.ring.Emit(obs.EvSession, uint64(lat))
		}
		w.ctrSess.Inc()
	}
	if len(w.cross) > 0 {
		if err := w.sendCross(); err != nil {
			fail(err)
		}
	}
	sessions.Done()
	// Producers may still be handing batches over; the inbox is closed
	// by the driver once every worker has passed the barrier above.
	for b := range w.inbox {
		if err := w.freeBatch(b); err != nil {
			fail(err)
		}
	}
	w.mag.Close()
}

func (cfg *Config) setDefaults() error {
	if cfg.Sessions <= 0 {
		return fmt.Errorf("serve: Sessions must be positive")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = cfg.Shards
	}
	if cfg.HeapSize <= 0 {
		cfg.HeapSize = cfg.Shards * 32 << 20
	}
	if cfg.CrossFraction < 0 || cfg.CrossFraction > 1 {
		return fmt.Errorf("serve: CrossFraction %v outside [0, 1]", cfg.CrossFraction)
	}
	if cfg.CrossFraction == 0 {
		cfg.CrossFraction = 0.25
	}
	if cfg.BurstLen <= 0 {
		cfg.BurstLen = 32
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Faults != nil {
		if cfg.ErrorRate > 0 {
			return fmt.Errorf("serve: Faults and ErrorRate are mutually exclusive (injected double frees would trip token verification)")
		}
		if cfg.GenTags {
			return fmt.Errorf("serve: Faults and GenTags are mutually exclusive (the fault soak is a thin-pointer magazine workload)")
		}
		f := *cfg.Faults // defaults must not mutate the caller's plan
		if f.ObjectSize == 0 {
			f.ObjectSize = 48
		}
		if f.ObjectSize < 8 || f.ObjectSize > core.MaxObjectSize {
			return fmt.Errorf("serve: FaultPlan.ObjectSize %d outside [8, %d]", f.ObjectSize, core.MaxObjectSize)
		}
		if f.OverflowObject >= sessionObjects || f.DanglingObject >= sessionObjects {
			return fmt.Errorf("serve: fault object index beyond the %d session objects", sessionObjects)
		}
		if f.OverflowObject >= 0 && (f.OverflowReach <= 0 || f.OverflowEvery <= 0) {
			return fmt.Errorf("serve: OverflowObject set but OverflowReach/OverflowEvery not positive")
		}
		if f.DanglingObject >= 0 && f.DanglingEvery <= 0 {
			return fmt.Errorf("serve: DanglingObject set but DanglingEvery not positive")
		}
		if f.OverflowObject >= 0 && f.OverflowObject == f.DanglingObject {
			return fmt.Errorf("serve: overflow and dangling faults share object %d", f.OverflowObject)
		}
		cfg.Faults = &f
	}
	return nil
}

// Run executes the soak and grades it. Any allocator error, data
// mismatch, or post-run CheckInvariants failure fails the run.
func Run(cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	sh, err := core.NewSharded(cfg.Shards, core.Options{
		HeapSize:   cfg.HeapSize,
		Seed:       cfg.Seed,
		Concurrent: true,
		RemoteRing: cfg.FreeMode == FreeRemote,
		GenTags:    cfg.GenTags,
	})
	if err != nil {
		return nil, err
	}

	// Telemetry wiring before the first session, so both surfaces can
	// be scraped live: shard heaps and the steal router ride rings
	// shardRingBase+i, workers ride rings 0..Workers-1, and the whole
	// stack publishes into one registry tree (all nil-safe — a nil
	// Obs/Trace costs one predictable branch per instrumented site).
	sh.AttachRecorder(cfg.Trace, shardRingBase)
	sh.PublishMetrics(cfg.Obs)
	sh.Mem().PublishMetrics(cfg.Obs)
	ctrSess := cfg.Obs.Counter("serve.sessions")
	var ctrCorrupt, ctrQuar *obs.Counter
	if cfg.Faults != nil {
		ctrCorrupt = cfg.Obs.Counter("heal.corruptions")
		ctrQuar = cfg.Obs.Counter("heal.quarantined_frees")
	}

	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		mag, err := sh.NewMagazine()
		if err != nil {
			return nil, err
		}
		ring := cfg.Trace.Ring(i)
		mag.SetTrace(ring)
		workers[i] = &worker{
			id:         i,
			sh:         sh,
			mag:        mag,
			mem:        sh.Mem(),
			r:          rng.NewSeeded(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15 + 1),
			mode:       cfg.FreeMode,
			inbox:      make(chan []heap.FatPtr, 8),
			cross:      make([]heap.FatPtr, 0, crossBatch),
			ring:       ring,
			ctrSess:    ctrSess,
			ctrCorrupt: ctrCorrupt,
			ctrQuar:    ctrQuar,
		}
		cfg.Obs.Histogram("serve.session_ns", &workers[i].hist,
			obs.Label{Name: "worker", Value: strconv.Itoa(i)})
	}
	for i, w := range workers {
		w.out = workers[(i+1)%len(workers)].inbox
	}

	var (
		sessions sync.WaitGroup
		all      sync.WaitGroup
		runErr   error
		errMu    sync.Mutex
	)
	per := cfg.Sessions / int64(cfg.Workers)
	start := time.Now()
	for i, w := range workers {
		quota := per
		if i == 0 {
			quota += cfg.Sessions % int64(cfg.Workers)
		}
		sessions.Add(1)
		all.Add(1)
		go func(w *worker, quota int64) {
			defer all.Done()
			w.run(&cfg, quota, &sessions, &runErr, &errMu)
		}(w, quota)
	}
	sessions.Wait()
	for _, w := range workers {
		close(w.inbox)
	}
	all.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return nil, runErr
	}
	// Release the quarantined slots, so FullnessEnd measures drift, not
	// quarantine inventory.
	sh.FlushQuarantine()
	var doubles int64
	for _, w := range workers {
		doubles += w.doubles
	}
	if cfg.ErrorRate > 0 && !cfg.GenTags {
		// §12 caveat, priced exactly: on an untagged heap an injected
		// double free whose second half straddles a reallocation (or a
		// magazine pre-claim) is indistinguishable from a valid free, so
		// the aggregate Mallocs/Frees/LiveObjects ledger may skew by up
		// to one per injected double. Structural invariants take no
		// slack. GenTags closes this gap (DESIGN.md §15): tagged runs —
		// the else branch — use the exact barrier even under injection,
		// because the gens CAS rejects every straddling half as stale.
		if err := sh.CheckInvariantsSlack(uint64(doubles)); err != nil {
			return nil, fmt.Errorf("serve: post-soak invariant violation: %w", err)
		}
	} else if err := sh.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("serve: post-soak invariant violation: %w", err)
	}

	res := &Result{
		Sessions: cfg.Sessions,
		Elapsed:  elapsed,
		Hist:     &obs.Histogram{},
		Stats:    sh.StatsSnapshot(),
	}
	// The soak is over: the space's frames go back to the pool. Its
	// vmem.* gauges keep reading the final counts.
	sh.Close()
	for _, w := range workers {
		res.Hist.Merge(&w.hist)
		res.Corruptions += w.corruptions
		res.DoubleFrees += w.doubles
		res.WildFrees += w.wilds
	}
	res.QuarantinedFrees = int64(res.Stats.Quarantined)
	if cfg.Faults != nil {
		res.MTBFSessions = float64(cfg.Sessions) / float64(max(int64(1), res.Corruptions))
	}
	res.SessionsPerSec = float64(cfg.Sessions) / elapsed.Seconds()
	res.P50 = res.Hist.Quantile(0.50)
	res.P99 = res.Hist.Quantile(0.99)
	res.P999 = res.Hist.Quantile(0.999)
	var threshold uint64
	for s := 0; s < sh.Shards(); s++ {
		for c := 0; c < core.NumClasses; c++ {
			_, maxInUse := sh.Shard(s).ClassSlots(c)
			threshold += uint64(maxInUse)
		}
	}
	if threshold > 0 {
		res.FullnessEnd = float64(res.Stats.LiveObjects) / float64(threshold)
	}
	return res, nil
}
