// Package diehard is the public API of a complete reproduction of
// Berger & Zorn, "DieHard: Probabilistic Memory Safety for Unsafe
// Languages" (PLDI 2006).
//
// DieHard tolerates the memory errors of unsafe languages — buffer
// overflows, dangling pointers, invalid and double frees, uninitialized
// reads — by approximating an infinite heap: objects are placed
// uniformly at random in a heap M times larger than needed, heap
// metadata is fully segregated, and (in replicated mode) several
// replicas with independently randomized heaps vote on output.
//
// Because Go is garbage-collected, the whole system runs on a simulated
// virtual address space: the allocator hands out simulated pointers and
// programs access memory through them, so memory errors have their
// native consequences (see DESIGN.md). The package exposes:
//
//   - Heap: the randomized allocator (stand-alone mode);
//   - Run: the replicated runtime with output voting;
//   - Strcpy/Strncpy replacements that cannot overflow (§4.4);
//   - the analytical guarantees of §6 (Theorems 1-3).
//
// A minimal session:
//
//	h, _ := diehard.NewHeap(diehard.HeapOptions{})
//	p, _ := h.Malloc(64)
//	_ = h.Mem().Store64(p, 42)
//	v, _ := h.Mem().Load64(p)   // 42
//	_ = h.Free(p)
//	_ = h.Free(p)               // double free: detected and ignored
package diehard

import (
	"io"

	"diehard/internal/analysis"
	"diehard/internal/core"
	"diehard/internal/detect"
	"diehard/internal/heal"
	"diehard/internal/heap"
	"diehard/internal/libc"
	"diehard/internal/obs"
	"diehard/internal/replicate"
	"diehard/internal/vmem"
)

// Ptr is a simulated pointer into a Heap's address space. The zero
// value is the null pointer.
type Ptr = heap.Ptr

// Memory is the data-access interface of a simulated address space.
type Memory = heap.Memory

// HeapOptions configures a DieHard heap. The zero value selects the
// paper's defaults: a 384 MB heap of which at most 1/M may be live,
// M = 2, and a true-random seed.
type HeapOptions struct {
	// HeapSize is the total small-object heap size in bytes.
	HeapSize int
	// M is the heap expansion factor (how many times larger the heap is
	// than the maximum live size it will serve). Must exceed 1.
	M float64
	// Seed fixes the randomized layout for reproduction; 0 draws a true
	// random seed.
	Seed uint64
	// ReplicatedMode fills the heap and every allocation with random
	// values, as the replicated runtime requires (§4.1). Each object's
	// fill continues its class's probe stream, so a replicated heap is
	// sequential: incompatible with Concurrent.
	ReplicatedMode bool
	// Concurrent prepares the heap for use by multiple goroutines at
	// once: allocator statistics and memory-access accounting switch to
	// atomic updates. Without it, the heap (and data access through
	// Mem()) must be confined to one goroutine at a time.
	Concurrent bool
	// RemoteFreeRing equips the heap with a bounded remote-free ring
	// (DESIGN.md §12): RemoteFree from a non-owning goroutine enqueues
	// the address instead of CAS-clearing the shared bitmap, and the
	// heap applies queued frees in batches at its next malloc miss or
	// invariant barrier. Requires Concurrent, so it is incompatible with
	// ReplicatedMode and DetectCanaries.
	RemoteFreeRing bool
	// DetectCanaries layers the probabilistic error detector
	// (internal/detect) over the heap: free space carries a seeded
	// canary pattern, audited on free, on reuse, and at heap-check
	// barriers, and damage is classified as buffer overflow, dangling
	// write, or uninitialized read with per-error Evidence records.
	// Detection is sequential and incompatible with Concurrent and
	// ReplicatedMode (the canary pattern is the fill).
	DetectCanaries bool
	// HeapCheckEvery, with DetectCanaries, runs an automatic canary
	// heap check every that many allocations; 0 leaves barriers to
	// explicit HeapCheck calls.
	HeapCheckEvery int
	// GenTags equips every slot with a generation counter in a side
	// array next to the bitmap (DESIGN.md §15): MallocFat returns fat
	// (address, generation) pointers, and FreeFat/RemoteFreeFat reject a
	// free whose tag went stale — a double free is caught exactly, even
	// when it straddles a reallocation, where the thin-pointer §4.3
	// ignore semantics are probabilistic. Tags live outside user memory,
	// so placement and data are byte-identical to an untagged heap with
	// the same seed; the thin Malloc/Free API keeps working alongside.
	// Composes with ReplicatedMode, and with DetectCanaries, where
	// GenMemory adds the generation check to every accessor.
	GenTags bool
	// HeapCheckMin, with HeapCheckEvery, makes the barrier cadence
	// adaptive (DESIGN.md §13): after a barrier interval in which any
	// audit recorded fresh evidence the next check fires HeapCheckMin
	// allocations later, and clean intervals double the cadence back
	// toward HeapCheckEvery. 0 keeps the fixed cadence.
	HeapCheckMin int
	// Trace attaches a flight-recorder ring (DESIGN.md §14): the heap
	// emits one fixed-size binary event per malloc, free, quarantine
	// hold, and invariant barrier — and, with DetectCanaries, per
	// evidence record and heap check. Tracing consumes no randomness
	// and never alters placement, so traced and untraced runs with the
	// same seed are byte-identical; nil (the default) leaves the hot
	// path at a single predictable branch.
	Trace *ObsRing
}

// Heap is a DieHard randomized heap. Built with HeapOptions.Concurrent,
// it is safe for use by multiple goroutines (lock-free CAS malloc fast
// path, statistics atomic); without it, the heap must be confined to one
// goroutine at a time, and each simulated process owns its own Heap,
// just as each replica owns its own randomized allocator. See
// core.ShardedHeap for a scalable multi-worker front end with
// occupancy-aware shard routing.
type Heap struct {
	h   *core.Heap
	dh  *detect.Heap // non-nil with DetectCanaries
	det *detect.Detector
	mem heap.Memory // canary-checking view with DetectCanaries, else the raw space
}

// NewHeap creates a DieHard heap.
func NewHeap(opts HeapOptions) (*Heap, error) {
	copts := core.Options{
		HeapSize:   opts.HeapSize,
		M:          opts.M,
		Seed:       opts.Seed,
		RandomFill: opts.ReplicatedMode,
		Concurrent: opts.Concurrent,
		RemoteRing: opts.RemoteFreeRing,
		GenTags:    opts.GenTags,
		Trace:      opts.Trace,
	}
	if opts.DetectCanaries {
		dh, err := detect.New(copts, detect.Options{
			HeapCheckEvery: opts.HeapCheckEvery,
			HeapCheckMin:   opts.HeapCheckMin,
			Trace:          opts.Trace,
		})
		if err != nil {
			return nil, err
		}
		return &Heap{h: dh.Heap, dh: dh, det: dh.Detector(), mem: dh.Memory()}, nil
	}
	h, err := core.New(copts)
	if err != nil {
		return nil, err
	}
	return &Heap{h: h, mem: h.Mem()}, nil
}

// Malloc allocates size bytes at a uniformly random heap location and
// returns the simulated address.
func (h *Heap) Malloc(size int) (Ptr, error) { return h.h.Malloc(size) }

// Free releases an allocation. Invalid, misaligned, and double frees
// are detected and ignored — they can never corrupt the heap (§4.3).
func (h *Heap) Free(p Ptr) error { return h.h.Free(p) }

// RemoteFree releases an allocation from a goroutine that does not own
// the heap's hot path: with HeapOptions.RemoteFreeRing the address is
// enqueued on the heap's remote-free ring (one atomic ticket and a slot
// write — no CAS on the shared bitmap) and applied in a batch at the
// heap's next malloc miss or invariant barrier. Without the ring — or
// when the ring is momentarily full — it behaves exactly like Free.
// The §4.3 ignore semantics are unchanged: of any set of racing frees
// of the same object, exactly one wins.
func (h *Heap) RemoteFree(p Ptr) error { return h.h.RemoteFree(p) }

// FatPtr is a generation-tagged fat pointer: the simulated address plus
// the generation the slot carried when it was issued (HeapOptions.
// GenTags). The zero value is the null fat pointer.
type FatPtr = heap.FatPtr

// MallocFat allocates like Malloc and returns the fat pointer carrying
// the slot's fresh generation (GenTags heaps only).
func (h *Heap) MallocFat(size int) (FatPtr, error) { return h.h.MallocFat(size) }

// FreeFat releases an allocation through its fat pointer: the free is
// accepted only while the tag is current, so a stale free — a double
// free, even one straddling a reallocation — is rejected deterministically
// and counted (Stats().StaleFrees), never mistaken for the new
// incarnation's free. Misaligned interior addresses are ignored as in
// Free. accepted reports whether this call released the object.
func (h *Heap) FreeFat(fp FatPtr) (accepted bool, err error) { return h.h.FreeFat(fp) }

// RemoteFreeFat is FreeFat through the remote-free ring (RemoteFreeRing
// heaps): the tag travels with the address and the owner's drain
// arbitrates, so deferral cannot turn a stale free into a valid one.
func (h *Heap) RemoteFreeFat(fp FatPtr) (accepted bool, err error) { return h.h.RemoteFreeFat(fp) }

// CheckGen reports whether fp is still current — the temporal validity
// test a program can apply before using a stored fat pointer.
func (h *Heap) CheckGen(fp FatPtr) bool { return h.h.CheckGen(fp) }

// GenCheckedMemory is the generation-checked data-access view of a
// DetectCanaries+GenTags heap: every accessor — word, byte, and bulk —
// verifies the fat pointer's tag, records stale-access Evidence when it
// is dead, and then forwards to the canary-checked view.
type GenCheckedMemory = detect.GenMemory

// GenMemory returns the generation-checked view; nil unless the heap
// was built with both DetectCanaries and GenTags.
func (h *Heap) GenMemory() *GenCheckedMemory {
	if h.dh == nil || !h.h.GenTagged() {
		return nil
	}
	return h.dh.GenMemory()
}

// Calloc allocates zeroed memory for n objects of size bytes.
func (h *Heap) Calloc(n, size int) (Ptr, error) { return heap.Calloc(h.h, n, size) }

// Realloc resizes an allocation, preserving contents.
func (h *Heap) Realloc(p Ptr, size int) (Ptr, error) { return heap.Realloc(h.h, p, size) }

// Mem returns the heap's simulated memory, used for all data access.
func (h *Heap) Mem() *vmem.Space { return h.h.Mem() }

// Close ends the heap's lifetime after its last access: its simulated
// memory's page frames go to a bounded process-wide pool that later
// heaps draw from, and every later access faults. Like closing a file,
// it must not run concurrently with an access; a second Close does
// nothing.
func (h *Heap) Close() { h.h.Close() }

// Memory returns the data-access view of the heap: with DetectCanaries
// it is the canary-checking wrapper whose 32/64-bit loads audit for
// uninitialized reads; otherwise it is the raw address space. Programs
// that want uninitialized-read detection must load through this view.
func (h *Heap) Memory() Memory { return h.mem }

// HeapCheck runs a canary barrier audit now (DetectCanaries only) and
// returns the number of new evidence records; without detection it
// reports 0.
func (h *Heap) HeapCheck() int {
	if h.det == nil {
		return 0
	}
	return h.det.HeapCheck()
}

// DetectionReport snapshots the detector's findings: every audited
// violation with its page, offset, damaged span, neighbor objects, and
// culprit allocation-site candidate. Nil without DetectCanaries.
func (h *Heap) DetectionReport() *DetectionReport {
	if h.det == nil {
		return nil
	}
	return h.det.Report()
}

// SizeOf reports the usable size of a live allocation.
func (h *Heap) SizeOf(p Ptr) (int, bool) { return h.h.SizeOf(p) }

// Seed returns the seed of the heap's random stream, recorded so any
// run can be reproduced exactly.
func (h *Heap) Seed() uint64 { return h.h.Seed() }

// Stats reports allocator activity counters. On a Concurrent heap the
// snapshot is read atomically, so it is safe while other goroutines
// allocate.
func (h *Heap) Stats() heap.Stats { return h.h.StatsSnapshot() }

// PublishMetrics registers the heap's counters as core.* gauges in the
// registry (DESIGN.md §14); with DetectCanaries the detect.* gauges
// are registered too. Gauges pull atomically from the live Stats, so
// the registry can be snapshot while the heap serves.
func (h *Heap) PublishMetrics(reg *ObsRegistry, labels ...ObsLabel) {
	h.h.PublishMetrics(reg, labels...)
	if h.det != nil {
		h.det.PublishMetrics(reg)
	}
}

// Magazine is a per-worker allocation front end over a lock-free heap:
// it holds pre-claimed slots per hot size class and buffers frees, so
// fast-path Malloc/Free touch no shared cache lines; refills and
// flushes batch the lock-free protocol (DESIGN.md §11). One magazine
// serves one goroutine at a time. Obtain via Heap.NewMagazine (or
// core.ShardedHeap.NewMagazine for the sharded front end); Drain at
// barriers needing exact counters, Close when done. On GenTags heaps
// MallocFat/FreeFat batch the same way, tags included (§15).
type Magazine = core.Magazine

// NewMagazine returns a per-worker magazine over this heap. The heap
// must not use canary detection or ReplicatedMode: batching is
// incompatible with per-operation audit hooks, and a batched refill
// draws its probes ahead of the fills.
func (h *Heap) NewMagazine() (*Magazine, error) { return h.h.NewMagazine() }

// Strcpy is DieHard's checked replacement for strcpy (§4.4): the copy
// is capped at the destination object's remaining capacity, so it can
// never overflow the heap. It returns the number of payload bytes
// copied.
func (h *Heap) Strcpy(dst, src Ptr) (int, error) {
	return libc.SafeStrcpy(h.h, h.Mem(), dst, src)
}

// Strncpy is DieHard's checked replacement for strncpy (§4.4): the
// programmer's length argument is honored only up to the destination
// object's real capacity.
func (h *Heap) Strncpy(dst, src Ptr, n int) (int, error) {
	return libc.SafeStrncpy(h.h, h.Mem(), dst, src, n)
}

// Strcat is DieHard's checked replacement for strcat: the append is
// capped at the destination object's remaining capacity.
func (h *Heap) Strcat(dst, src Ptr) (int, error) {
	return libc.SafeStrcat(h.h, h.Mem(), dst, src)
}

// Strdup allocates a copy of the NUL-terminated string at src.
func (h *Heap) Strdup(src Ptr) (Ptr, error) {
	return libc.Strdup(h.h, h.Mem(), src)
}

// Program is a deterministic application runnable under replication.
// It must write all observable output through ctx.Out.
type Program = replicate.Program

// Context is a replica's view of the world.
type Context = replicate.Context

// RunOptions configures a replicated execution.
type RunOptions struct {
	// Replicas is the number of replicas (1, or at least 3 so the voter
	// can adjudicate). Defaults to 3.
	Replicas int
	// HeapSize configures each replica's heap.
	HeapSize int
	// Seed fixes the per-replica seed derivation; 0 draws true
	// randomness.
	Seed uint64
	// MaxRestarts lets the voter replace killed divergent replicas: a
	// fresh replica with a newly derived seed replays the broadcast
	// input, is checked against the committed output prefix, and
	// rejoins the quorum (DESIGN.md §9). 0 disables restarts; a
	// negative value is refused.
	MaxRestarts int
	// DetectCanaries gives every replica a canary detection heap
	// instead of the random fill: divergence detection still works, and
	// killed replicas contribute heap-error Evidence to the Result for
	// TriageKilled.
	DetectCanaries bool
}

// Result reports a replicated execution: the voted output, whether
// every committed chunk had a quorum, and whether an uninitialized read
// was detected (all replicas disagreeing).
type Result = replicate.Result

// Run executes prog under the replicated runtime (§5): each replica has
// an independently randomized, randomly-filled heap; input is broadcast;
// output is committed only when replicas agree. A program whose output
// depends on uninitialized memory is detected (Result.UninitSuspected)
// and terminated.
//
// Voting is pipelined: replicas stream hash-tagged 4 KB buffers and
// keep executing while the voter adjudicates, so a replicated run is not
// barrier-stalled at every buffer boundary; the committed output is what
// the paper's lock-step protocol would commit.
func Run(prog Program, input []byte, opts RunOptions) (*Result, error) {
	return replicate.Run(prog, input, replicate.Options{
		Replicas:    opts.Replicas,
		HeapSize:    opts.HeapSize,
		Seed:        opts.Seed,
		MaxRestarts: opts.MaxRestarts,
		Detect:      opts.DetectCanaries,
	})
}

// OverflowMaskProbability is Theorem 1: the probability that a buffer
// overflow of `objects` object-widths overwrites no live data in at
// least one of k replicas, at the given heap fullness.
func OverflowMaskProbability(fullness float64, objects, replicas int) float64 {
	return analysis.OverflowMaskProb(fullness, objects, replicas)
}

// DanglingMaskProbability is Theorem 2: a lower bound on the
// probability that an object of size `size`, freed `allocs` allocations
// too early, is intact when its real free would occur, given freeBytes
// of free space in its size class and k replicas.
func DanglingMaskProbability(allocs, size, freeBytes, replicas int) float64 {
	return analysis.DanglingMaskProb(allocs, size, freeBytes, replicas)
}

// UninitDetectProbability is Theorem 3: the probability that k replicas
// detect an uninitialized read of `bits` bits.
func UninitDetectProbability(bits, replicas int) float64 {
	return analysis.UninitDetectProb(bits, replicas)
}

// WriteString stores a Go string into simulated memory, NUL-terminated.
func WriteString(m Memory, dst Ptr, s string) error { return libc.WriteString(m, dst, s) }

// ReadString reads a NUL-terminated string from simulated memory.
func ReadString(m Memory, src Ptr, maxLen int) (string, error) {
	return libc.ReadString(m, src, maxLen)
}

var _ io.Writer = (*nullWriter)(nil)

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// Discard is an io.Writer that drops output; convenient for programs
// run only for their side effects in examples and tests.
var Discard io.Writer = nullWriter{}

// The unified telemetry plane (DESIGN.md §14): one metrics registry
// every layer publishes typed counters, pull-gauges, and latency
// histograms into, and one flight recorder of per-worker lock-free
// trace rings merged on demand into a stamp-ordered timeline. All
// handles are nil-safe — a nil registry or ring disables telemetry at
// the cost of one predictable branch per instrumented site.
type (
	// ObsRegistry is the metric tree; build with NewObsRegistry.
	ObsRegistry = obs.Registry
	// ObsLabel is one name=value metric dimension.
	ObsLabel = obs.Label
	// ObsRecorder owns the Lamport stamp counter and the trace rings;
	// build with NewRecorder.
	ObsRecorder = obs.Recorder
	// ObsRing is one worker's trace ring, obtained from a recorder.
	ObsRing = obs.Ring
	// ObsEvent is one decoded trace record of the merged timeline.
	ObsEvent = obs.Event
	// ObsHistogram is the shared fixed-bucket log-scale histogram.
	ObsHistogram = obs.Histogram
)

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewRecorder builds a flight recorder whose per-worker rings hold
// ringSlots events each (rounded up to a power of two, minimum 16).
func NewRecorder(ringSlots int) *ObsRecorder { return obs.NewRecorder(ringSlots) }

// ObjectRecord is one live object's identity and contents hash in a
// heap snapshot.
type ObjectRecord = core.ObjectRecord

// Divergence reports one object whose state differs between two
// snapshots.
type Divergence = core.Divergence

// Snapshot records every live object's location and contents hash. Two
// identically seeded heaps running the same deterministic program
// produce identical snapshots; see DiffSnapshots.
func (h *Heap) Snapshot() ([]ObjectRecord, error) { return h.h.Snapshot() }

// DiffSnapshots compares snapshots from identically seeded heaps and
// returns the objects that diverge, pinpointing memory corruption — the
// heap-differencing debugger the paper sketches in §9 ("report these as
// part of a crash dump without the crash").
func DiffSnapshots(a, b []ObjectRecord) []Divergence { return core.DiffSnapshots(a, b) }

// Evidence is one detected heap violation (DetectCanaries): kind, audit
// point, damaged page/offset/span, the nearest neighbor objects, and
// the culprit allocation-site candidate.
type Evidence = detect.Evidence

// DetectionReport is a detection heap's evidence snapshot.
type DetectionReport = detect.Report

// DetectKind classifies detected errors.
type DetectKind = detect.Kind

// Detected error kinds. KindStaleFree and KindStaleAccess are the
// generation tier's deterministic findings (GenTags heaps).
const (
	KindOverflow    = detect.KindOverflow
	KindDangling    = detect.KindDangling
	KindUninit      = detect.KindUninit
	KindStaleFree   = detect.KindStaleFree
	KindStaleAccess = detect.KindStaleAccess
)

// TriageResult is the cross-layout culprit adjudication.
type TriageResult = detect.TriageResult

// Triage intersects detection evidence of one kind across reports from
// independently seeded heaps running the same deterministic program,
// and localizes the culprit allocation site: the true culprit's site is
// layout-invariant, while coincidentally damaged neighbors re-randomize
// away (Exterminator's insight, applied to the DieHard substrate).
func Triage(kind DetectKind, reports []*DetectionReport) *TriageResult {
	return detect.Triage(kind, reports)
}

// EvidenceAccumulator is the streaming, goroutine-safe counterpart of
// Triage: it ingests evidence windows as a long-running service produces
// them and answers culprit verdicts at any moment. Mergeable across
// campaign replicas with byte-identical results at any worker count.
type EvidenceAccumulator = detect.Accumulator

// HealSchedule is a planned fault schedule for the self-healing
// supervisor: cyclic allocation sites with a planted overflow culprit
// and a planted dangling-write culprit.
type HealSchedule = heal.Schedule

// HealConfig configures a supervised run (DESIGN.md §13).
type HealConfig = heal.Config

// HealResult is one supervised run's grade sheet: MTBF, the onset →
// countermeasure timeline, verdicts, and the installed pad/quarantine
// tables.
type HealResult = heal.Result

// HealCampaignResult aggregates replicated supervised runs with a
// deterministic verdict hash.
type HealCampaignResult = heal.CampaignResult

// Heal runs the self-healing supervisor: a detection heap cycles
// through the schedule's allocation program, triage evidence
// accumulates across heap-check barriers and epoch restarts, and when a
// culprit site crosses the confidence bar a live countermeasure —
// per-site overallocation padding for overflow culprits, per-site free
// quarantine for dangling culprits — is installed without a restart.
func Heal(cfg HealConfig) (*HealResult, error) { return heal.Run(cfg) }

// HealCampaign runs replicated supervised runs with derived seeds on a
// worker pool and merges their verdicts; the result (including its
// VerdictHash) is byte-identical at any worker count.
func HealCampaign(cfg HealConfig, replicas, workers int) (*HealCampaignResult, error) {
	return heal.RunCampaign(cfg, replicas, workers)
}
