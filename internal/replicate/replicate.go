// Package replicate implements DieHard's replicated mode (§5): several
// replicas of the same program execute simultaneously, each with a
// differently-seeded fully-randomized memory manager; input is broadcast
// to all replicas; output is committed only when replicas agree on it.
//
// The paper runs replicas as processes wired up with pipes and shared
// memory; here each replica is a goroutine owning a private simulated
// address space (DESIGN.md §1), its output staged through a buffer the
// size of a pipe transfer unit (4 KB). A voter adjudicates the stream of
// buffers exactly as §5.2 prescribes:
//
//   - if all live replicas produced identical buffers, the contents are
//     committed to the output;
//   - otherwise a buffer agreed on by at least two replicas wins, and
//     disagreeing replicas are killed ("a replica that has generated
//     anomalous output is no longer useful since it has entered into an
//     undefined state");
//   - if no two replicas agree, an uninitialized read (or equivalent
//     divergence) has been detected and execution terminates.
//
// Two voting engines implement those semantics (DESIGN.md §8). The
// default pipelined engine tags every buffer with a 64-bit hash in the
// replica's own goroutine and streams it through a buffered per-replica
// channel, so surviving replicas keep executing their next buffers while
// the current round is being voted; agreement is decided hash-first,
// with byte comparison only between hash-equal buffers, so the committed
// output is exactly what §5.2's byte-wise comparison would commit. The
// sequential engine (Options.Voter = VoterSequential) barrier-stalls
// every replica at each voting round, which is the paper's lock-step
// pipe protocol and the baseline the pipelined engine is benchmarked
// against. Both engines share one adjudication function, so they commit
// byte-identical output for any replica count.
//
// Replicas that crash are discarded and the live-replica count drops,
// mirroring the signal handling of the real system. Functions that would
// let replicas observe the environment differently (the clock) are
// virtualized so correct replicas are output-equivalent (§5.3).
package replicate

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"diehard/internal/obs"

	"diehard/internal/core"
	"diehard/internal/detect"
	"diehard/internal/heap"
	"diehard/internal/libc"
	"diehard/internal/rng"
)

// DefaultBufferSize is the voting granularity: the unit of transfer of a
// pipe, as in §5.2.
const DefaultBufferSize = 4096

// DefaultPipelineDepth is the base run-ahead allowance of the pipelined
// engine: the starting point of each replica's adaptive window (see
// Options.PipelineDepth).
const DefaultPipelineDepth = 4

// ErrKilled is returned from output writes of a replica the voter has
// killed for disagreeing. The replica's program unwinds on it. Under the
// pipelined voter the error surfaces on the first write after the kill
// is observed, which may be up to PipelineDepth buffers after the
// disagreeing one; none of the intervening output is ever committed.
var ErrKilled = errors.New("replicate: replica killed by voter")

// ErrNoAgreement reports a barrier at which no two replicas agreed — the
// signature of an uninitialized read propagating to output.
var ErrNoAgreement = errors.New("replicate: no two replicas agree; uninitialized read suspected")

// VoterMode selects the voting engine.
type VoterMode int

const (
	// VoterPipelined is the default hash-then-vote engine: replicas
	// stream hashed buffers through buffered channels and keep executing
	// while the voter adjudicates (DESIGN.md §8).
	VoterPipelined VoterMode = iota
	// VoterSequential is the paper's lock-step protocol: every replica
	// stalls at each voting barrier until the round is committed. Kept
	// as the semantic reference and benchmark baseline.
	VoterSequential
)

// Context is a replica's view of the world, passed to the Program.
type Context struct {
	// Alloc is the replica's private randomized allocator.
	Alloc heap.Allocator
	// Mem is the replica's view of memory.
	Mem heap.Memory
	// Bounds exposes object-bounds resolution for DieHard's checked
	// library functions (§4.4).
	Bounds libc.Bounds
	// Input is the replica's copy of the broadcast standard input.
	Input []byte
	// Out is the replica's standard output; writes are staged in the
	// voting buffer.
	Out io.Writer
	// Now is the virtualized clock (§5.3): deterministic and identical
	// across correct replicas.
	Now func() int64
	// Replica is the replica index, for diagnostics only; programs that
	// branch on it will be killed by the voter, which is occasionally
	// useful in tests.
	Replica int
}

// Program is a deterministic application run under replication.
type Program func(ctx *Context) error

// Options configures a replicated run.
type Options struct {
	// Replicas is the number of replicas; the voter cannot adjudicate
	// two, so use 1 or at least 3 (§6). Defaults to 3.
	Replicas int
	// HeapSize, M: per-replica DieHard configuration (defaults as in
	// internal/core).
	HeapSize int
	M        float64
	// Seed seeds the master stream from which replica seeds derive;
	// 0 draws a true random seed.
	Seed uint64
	// BufferSize is the voting granularity; defaults to 4 KB.
	BufferSize int
	// Voter selects the voting engine; the zero value is the pipelined
	// hash-then-vote engine. Committed output is byte-identical between
	// engines for any replica count.
	Voter VoterMode
	// PipelineDepth is the base run-ahead allowance of the pipelined
	// engine: each replica's window starts here and adapts toward the
	// measured voter lag within [1, 2×PipelineDepth] (laggards shrink
	// to 1, replicas the voter keeps waiting behind a slower sibling
	// widen to 2×). Defaults to DefaultPipelineDepth. The window never
	// affects committed output, only how far execution runs ahead of
	// adjudication.
	PipelineDepth int
	// MaxRestarts lets the pipelined voter replenish the quorum: each
	// time it kills a divergent replica, a fresh replica with a newly
	// derived seed re-executes the program over the broadcast input, its
	// replayed output is checked against the committed prefix, and —
	// when the replay matches — it joins the vote (§5's long-running
	// service story). A replacement whose replay diverges is killed in
	// turn; each attempt consumes one restart. 0 disables restarts; the
	// sequential reference voter ignores them.
	MaxRestarts int
	// Obs, when non-nil, receives live replicate.* counters while the
	// pipelined voter runs: vote rounds, kills, restarts, and the peak
	// adaptive run-ahead window. Purely observational — registration
	// happens before the first round and the counters are updated from
	// the voter goroutine only, so scraping mid-run is race-clean. The
	// sequential reference voter publishes rounds only.
	Obs *obs.Registry
	// Detect swaps each replica's random fill for the canary detection
	// engine (internal/detect): replicas still diverge on uninitialized
	// reads (their canary patterns derive from their distinct seeds), and
	// every replica's heap-error evidence is collected into its
	// ReplicaReport — so when the voter kills a divergent replica, the
	// evidence from its heap feeds Result.TriageKilled.
	Detect bool
}

// ReplicaReport describes one replica's fate.
type ReplicaReport struct {
	Seed      uint64
	Err       error // program error; nil if it completed or was killed
	Killed    bool
	Completed bool
	// Restarted marks a replacement replica spawned by the pipelined
	// voter after a kill (Options.MaxRestarts).
	Restarted bool
	// Evidence is the replica's heap-error evidence (Options.Detect
	// only), collected after the program unwound — completed, crashed,
	// or killed.
	Evidence []detect.Evidence
}

// Result is the outcome of a replicated run.
type Result struct {
	// Output is the committed (voted) output.
	Output []byte
	// Agreed reports whether every committed chunk had a quorum (all
	// chunks unanimous or majority-approved, never a lone survivor).
	Agreed bool
	// UninitSuspected reports a barrier where all live replicas
	// disagreed pairwise.
	UninitSuspected bool
	// Survivors is the number of replicas alive at the end.
	Survivors int
	// Rounds is the number of voting barriers.
	Rounds int
	// PipelineDepthPeak is the widest adaptive run-ahead window any
	// replica earned during the run (pipelined voter only; zero under
	// the sequential engine or when no chunk was ever voted). The
	// window starts at Options.PipelineDepth and resizes toward the
	// measured voter lag within [1, 2×PipelineDepth]; the peak reports
	// how much run-ahead the workload actually used.
	PipelineDepthPeak int
	// Replicas holds per-replica reports, including the exact seeds for
	// reproduction.
	Replicas []ReplicaReport
}

// replicaWriter is the staging writer a voting engine hands each
// replica: an io.Writer that chunks output at the voting granularity,
// plus the end-of-program handshake.
type replicaWriter interface {
	io.Writer
	finish(progErr error)
}

// Run executes prog under replication and votes on its output.
func Run(prog Program, input []byte, opts Options) (*Result, error) {
	if opts.Replicas == 0 {
		opts.Replicas = 3
	}
	if opts.Replicas < 1 {
		return nil, fmt.Errorf("replicate: invalid replica count %d", opts.Replicas)
	}
	if opts.BufferSize == 0 {
		opts.BufferSize = DefaultBufferSize
	}
	if opts.PipelineDepth <= 0 {
		opts.PipelineDepth = DefaultPipelineDepth
	}
	k := opts.Replicas
	master := rng.NewSeeded(opts.Seed)
	if opts.Seed == 0 {
		master = rng.New()
	}
	res := &Result{
		Agreed:   true,
		Replicas: make([]ReplicaReport, k),
	}
	seeds := make([]uint64, k)
	for i := 0; i < k; i++ {
		seeds[i] = master.Next64() | 1 // never zero: zero means "draw entropy"
		res.Replicas[i].Seed = seeds[i]
	}
	switch opts.Voter {
	case VoterSequential:
		runSequential(prog, input, opts, seeds, res)
	default:
		// Replacement replicas draw from the same master stream the
		// original seeds came from, so restarted runs stay reproducible
		// from Options.Seed alone.
		nextSeed := func() uint64 { return master.Next64() | 1 }
		runPipelined(prog, input, opts, seeds, nextSeed, res)
	}
	res.Survivors = 0
	for i := range res.Replicas {
		if res.Replicas[i].Completed {
			res.Survivors++
		}
	}
	if res.Survivors == 0 {
		res.Agreed = false
	}
	return res, nil
}

// TriageKilled intersects the heap-error evidence of the replicas the
// voter killed or that crashed (Options.Detect runs only) across their
// independently seeded layouts, localizing the culprit allocation site
// of the error that made them diverge. Returns nil when no such replica
// carried evidence.
func (r *Result) TriageKilled(kind detect.Kind) *detect.TriageResult {
	var reports []*detect.Report
	for i := range r.Replicas {
		rep := &r.Replicas[i]
		if (rep.Killed || rep.Err != nil) && len(rep.Evidence) > 0 {
			reports = append(reports, &detect.Report{Seed: rep.Seed, Evidence: rep.Evidence})
		}
	}
	if len(reports) == 0 {
		return nil
	}
	return detect.Triage(kind, reports)
}

// spawnReplicas starts one goroutine per replica, each with a private
// randomized heap seeded from seeds[i] and its output staged through
// writers[i]; detection evidence (Options.Detect) lands in reps[i]. The
// returned WaitGroup is done when every replica has unwound (completed,
// crashed, or killed).
func spawnReplicas(prog Program, input []byte, opts Options, seeds []uint64, writers []replicaWriter, reps []*ReplicaReport) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := range writers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runReplica(i, prog, input, opts, seeds[i], writers[i], reps[i])
		}(i)
	}
	return &wg
}

// runReplica executes one replica to completion: heap construction,
// input copy, the program itself (panics demoted to crashes), and the
// final partial-buffer handshake with the voter. After the program has
// unwound — however it unwound — a detection replica runs a final heap
// check and stashes its evidence in rep, which is what feeds the triage
// of killed replicas; then the replica closes its heap, on its own
// goroutine, after its last access.
func runReplica(i int, prog Program, input []byte, opts Options, seed uint64, w replicaWriter, rep *ReplicaReport) {
	var progErr error
	var det *detect.Detector
	var h interface{ Close() }
	func() {
		defer func() {
			if r := recover(); r != nil {
				progErr = fmt.Errorf("replica panic: %v", r)
			}
		}()
		var (
			alloc  heap.Allocator
			mem    heap.Memory
			bounds libc.Bounds
		)
		if opts.Detect {
			dh, err := detect.New(core.Options{
				HeapSize: opts.HeapSize,
				M:        opts.M,
				Seed:     seed,
			}, detect.Options{})
			if err != nil {
				progErr = err
				return
			}
			det = dh.Detector()
			h, alloc, mem, bounds = dh, dh, dh.Memory(), dh
		} else {
			ch, err := core.New(core.Options{
				HeapSize:   opts.HeapSize,
				M:          opts.M,
				Seed:       seed,
				RandomFill: true,
			})
			if err != nil {
				progErr = err
				return
			}
			h, alloc, mem, bounds = ch, ch, ch.Mem(), ch
		}
		in := make([]byte, len(input))
		copy(in, input)
		var clock int64
		ctx := &Context{
			Alloc:   alloc,
			Mem:     mem,
			Bounds:  bounds,
			Input:   in,
			Out:     w,
			Replica: i,
			Now: func() int64 {
				clock++
				return 1_150_000_000 + clock // fixed virtual epoch
			},
		}
		progErr = prog(ctx)
	}()
	if det != nil {
		det.HeapCheck()
		rep.Evidence = det.Report().Evidence
	}
	if h != nil {
		h.Close()
	}
	if errors.Is(progErr, ErrKilled) {
		return // voter already knows
	}
	w.finish(progErr)
}
