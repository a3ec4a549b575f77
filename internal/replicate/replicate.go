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
// The voter is pipelined (DESIGN.md §8): every buffer is tagged with a
// 64-bit hash in the replica's own goroutine and streamed through a
// per-replica channel, so surviving replicas keep executing their next
// buffers while the current round is being voted; agreement is decided
// hash-first, with byte comparison only between hash-equal buffers, so
// the committed output is exactly what §5.2's byte-wise comparison would
// commit. The paper's lock-step protocol is kept as a sequential offline
// vote in the tests, and the voter must match it.
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

	"diehard/internal/obs"

	"diehard/internal/core"
	"diehard/internal/detect"
	"diehard/internal/heap"
	"diehard/internal/libc"
	"diehard/internal/rng"
)

// BufferSize is the voting granularity: the unit of transfer of a
// pipe, as in §5.2.
const BufferSize = 4096

// PipelineDepth is the base run-ahead allowance of the voter: each
// replica's window starts here and adapts toward the measured voter lag
// within [1, 2×PipelineDepth] (laggards shrink to 1, replicas the voter
// keeps waiting behind a slower sibling widen to 2×). The window never
// affects committed output, only how far execution runs ahead of
// adjudication.
const PipelineDepth = 4

// ErrKilled is returned from output writes of a replica the voter has
// killed for disagreeing. The replica's program unwinds on it. The error
// surfaces on the first write after the kill is observed, which may be
// up to the replica's run-ahead window (at most 2×PipelineDepth) of
// buffers after the disagreeing one; none of the intervening output is
// ever committed.
var ErrKilled = errors.New("replicate: replica killed by voter")

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
	// HeapSize is each replica's heap size (core's default when 0).
	HeapSize int
	// Seed seeds the master stream from which replica seeds derive;
	// 0 draws a true random seed.
	Seed uint64
	// MaxRestarts lets the voter replenish the quorum: each time it
	// kills a divergent replica, a fresh replica with a newly derived
	// seed re-executes the program over the broadcast input, its
	// replayed output is checked against the committed prefix, and —
	// when the replay matches — it joins the vote (§5's long-running
	// service story). A replacement whose replay diverges is killed in
	// turn; each attempt consumes one restart. 0 disables restarts; a
	// negative value is refused.
	MaxRestarts int
	// Obs, when non-nil, receives live replicate.* counters while the
	// voter runs: vote rounds, kills, restarts, and the peak adaptive
	// run-ahead window. Purely observational — registration happens
	// before the first round and the counters are updated from the voter
	// goroutine only, so scraping mid-run is race-clean.
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
	// Restarted marks a replacement replica spawned by the voter after
	// a kill (Options.MaxRestarts).
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
	// replica earned during the run (zero when no chunk was ever
	// voted). The window starts at PipelineDepth and resizes toward the
	// measured voter lag within [1, 2×PipelineDepth]; the peak reports
	// how much run-ahead the workload actually used.
	PipelineDepthPeak int
	// Replicas holds per-replica reports, including the exact seeds for
	// reproduction.
	Replicas []ReplicaReport
}

// replicaWriter is the staging writer a replica writes its output
// through: an io.Writer that chunks output at the voting granularity,
// plus the end-of-program handshake. The voter hands each replica a
// pipeWriter; the tests' offline reference substitutes a recorder.
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
	if opts.MaxRestarts < 0 {
		return nil, fmt.Errorf("replicate: invalid MaxRestarts %d", opts.MaxRestarts)
	}
	master := rng.NewSeeded(opts.Seed)
	if opts.Seed == 0 {
		master = rng.New()
	}
	// Every replica seed, replacements' included, comes from one master
	// stream, so a run is reproducible from Options.Seed alone. A seed is
	// never zero: zero means "draw entropy".
	nextSeed := func() uint64 { return master.Next64() | 1 }
	res := &Result{Agreed: true}
	runPipelined(prog, input, opts, nextSeed, res)
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
