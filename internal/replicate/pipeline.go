package replicate

import (
	"bytes"
	"sync"
)

// The voter (DESIGN.md §8). It departs from the paper's lock-step
// barrier protocol in three ways, none of which alter what gets
// committed:
//
//  1. Each replica hashes its buffer in its own goroutine and sends it
//     through a buffered channel, so a replica only blocks once it has
//     run its window of buffers ahead of the voter — surviving replicas
//     keep executing while the current round is being voted, instead of
//     stalling at a barrier.
//  2. The voter groups buffers by hash and byte-compares only within
//     hash-equal groups (adjudicate), so a round over k replicas that
//     all agree costs k hash lookups and one byte comparison chain
//     instead of k full concatenation-keyed map inserts.
//  3. Kills are delivered by closing a per-replica channel rather than
//     by a negative acknowledgement, because a killed replica may be
//     anywhere — computing, blocked on a full pipeline, or already in
//     its final handshake.
//
// Rounds are still adjudicated strictly in order: the voter takes the
// next buffer from every live replica's FIFO channel, so round r is
// always every replica's r-th buffer and the committed output is
// byte-identical to the lock-step protocol's for any replica count
// (TestVoterMatchesOfflineVote pins this against a sequential offline
// vote).
//
// How far a replica may run ahead is adaptive: each writer carries a
// run-ahead window that resizes toward the voter lag the voter measures
// when it releases the chunk's credit — after the chunk's round
// adjudicates — within [1, 2×PipelineDepth]. A replica the voter keeps
// waiting on (its queue is drained on arrival) shrinks toward a window
// of 1 — it is the laggard; buffering ahead of it buys nothing. A
// replica that keeps saturating its allowance while the voter is stuck
// on a slower sibling widens toward 2×PipelineDepth, so the buffer
// memory migrates to exactly the replicas that can use it. The window
// gates only how far execution runs ahead of adjudication — round
// order, and therefore the committed output, is untouched.

// pipeWriter stages a replica's output into a buffered channel. The
// voter kills the replica by closing kill; the writer observes the kill
// on its next write or while waiting for run-ahead credit. The channel
// capacity is the hard 2×PipelineDepth bound, so once acquire grants
// credit the send itself never blocks.
type pipeWriter struct {
	buf    []byte
	ch     chan chunk
	kill   chan struct{}
	killed bool

	mu       sync.Mutex
	cond     *sync.Cond
	inFlight int  // chunks granted credit and not yet consumed by the voter
	window   int  // adaptive run-ahead allowance, within [1, 2*PipelineDepth]
	dead     bool // kill observed; wakes acquire waiters
}

func newPipeWriter() *pipeWriter {
	w := &pipeWriter{
		ch:     make(chan chunk, 2*PipelineDepth),
		kill:   make(chan struct{}),
		window: PipelineDepth,
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire blocks until the replica holds run-ahead credit for one more
// chunk (or the voter killed it — false). This is the only place a
// healthy writer waits: the channel itself never fills.
func (w *pipeWriter) acquire() bool {
	w.mu.Lock()
	for w.inFlight >= w.window && !w.dead {
		w.cond.Wait()
	}
	ok := !w.dead
	if ok {
		w.inFlight++
	}
	w.mu.Unlock()
	return ok
}

// release is the voter half of the window: called once per consumed
// chunk, it returns the credit and steps the window one unit toward the
// lag the voter just observed (the chunks still queued on arrival). A
// writer found saturated widens — the voter was the laggard here; a
// writer found drained narrows — the replica was. Returns the new
// window for Result.PipelineDepthPeak.
func (w *pipeWriter) release() int {
	w.mu.Lock()
	w.inFlight--
	switch lag := w.inFlight; {
	case lag+1 >= w.window:
		if w.window < 2*PipelineDepth {
			w.window++
		}
	case w.window > lag+1:
		w.window--
	}
	win := w.window
	w.cond.Signal()
	w.mu.Unlock()
	return win
}

// markDead wakes any acquire waiter after a kill; the closed kill
// channel covers the writer's other blocking points.
func (w *pipeWriter) markDead() {
	w.mu.Lock()
	w.dead = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *pipeWriter) Write(p []byte) (int, error) {
	if w.killed {
		return 0, ErrKilled
	}
	select {
	case <-w.kill:
		w.killed = true
		return 0, ErrKilled
	default:
	}
	w.buf = append(w.buf, p...)
	for len(w.buf) >= BufferSize {
		out := make([]byte, BufferSize)
		copy(out, w.buf[:BufferSize])
		w.buf = w.buf[BufferSize:]
		if !w.acquire() {
			w.killed = true
			return 0, ErrKilled
		}
		w.ch <- chunk{data: out, hash: chunkHash(out, false)}
	}
	return len(p), nil
}

// finish sends the final (possibly empty) partial buffer; there is no
// acknowledgement to wait for — the replica goroutine exits as soon as
// the buffer is queued.
func (w *pipeWriter) finish(progErr error) {
	if w.killed {
		return
	}
	if !w.acquire() {
		return
	}
	w.ch <- chunk{data: w.buf, hash: chunkHash(w.buf, true), done: true, err: progErr}
}

// runPipelined drives a replicated run through the voter, filling res
// (everything except Survivors, which Run derives from the per-replica
// reports). Every replica's seed comes from nextSeed. When
// Options.MaxRestarts is positive, each kill of a divergent replica is
// followed by a restart attempt: a fresh replica re-executes the program
// over the broadcast input, the voter replays its output against the
// committed prefix, and on a byte-exact match the replacement joins the
// next voting round — restoring the quorum, as §5 suggests for
// long-running services.
func runPipelined(prog Program, input []byte, opts Options, nextSeed func() uint64, res *Result) {
	k := opts.Replicas
	writers := make([]*pipeWriter, 0, k+opts.MaxRestarts)
	reps := make([]*ReplicaReport, 0, k+opts.MaxRestarts)
	states := make([]replicaState, 0, k+opts.MaxRestarts)
	var wg sync.WaitGroup

	// spawn starts one replica goroutine. Reports are individually heap
	// allocated because restarts grow the slices mid-run; res.Replicas
	// is assembled from them once every goroutine has unwound.
	spawn := func(seed uint64, restarted bool) int {
		i := len(writers)
		w := newPipeWriter()
		rep := &ReplicaReport{Seed: seed, Restarted: restarted}
		writers = append(writers, w)
		reps = append(reps, rep)
		states = append(states, rsRunning)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runReplica(i, prog, input, opts, seed, w, rep)
		}()
		return i
	}
	for i := 0; i < k; i++ {
		spawn(nextSeed(), false)
	}

	var output bytes.Buffer
	restarts := 0

	// Live telemetry: nil-safe counters (a nil registry yields nil
	// counters, and nil *obs.Counter methods are no-ops), plus a gauge
	// over the result's depth peak so a mid-run scrape sees the widest
	// window earned so far.
	ctrRounds := opts.Obs.Counter("replicate.rounds")
	ctrKills := opts.Obs.Counter("replicate.kills")
	ctrRestarts := opts.Obs.Counter("replicate.restarts")
	opts.Obs.Gauge("replicate.pipeline_depth_peak", func() float64 {
		return float64(res.PipelineDepthPeak)
	})

	kill := func(i int) {
		states[i] = rsKilled
		reps[i].Killed = true
		ctrKills.Inc()
		close(writers[i].kill)
		writers[i].markDead()
	}

	// recv consumes replica i's next chunk; release returns its
	// run-ahead credit and folds the window into the result's peak.
	// Credit is released only after the chunk's round adjudicates, and
	// only for survivors: a loser never regains credit for the round
	// that kills it, so a replica that diverges blocks in acquire within
	// window+1 buffers of the divergence and markDead unwinds it with
	// ErrKilled — the same observation bound as a fixed-depth pipeline.
	recv := func(i int) chunk { return <-writers[i].ch }
	release := func(i int) {
		if win := writers[i].release(); win > res.PipelineDepthPeak {
			res.PipelineDepthPeak = win
		}
	}

	// restart spawns and catches up one replacement replica, retrying
	// (within the budget) if a replacement itself diverges from the
	// committed prefix or crashes during replay. Restart is only
	// attempted while the committed output is buffer-aligned: a partial
	// committed chunk means some replica already finished, so the run is
	// ending and the replayed stream could not be re-chunked to match.
	restart := func() {
		for restarts < opts.MaxRestarts {
			if output.Len()%BufferSize != 0 {
				return
			}
			restarts++
			ctrRestarts.Inc()
			idx := spawn(nextSeed(), true)
			committed := output.Bytes()
			ok := true
			for off := 0; off < len(committed); off += BufferSize {
				m := recv(idx)
				if m.err != nil {
					states[idx] = rsCrashed
					reps[idx].Err = m.err
					ok = false
					break
				}
				if m.done || !bytes.Equal(m.data, committed[off:off+BufferSize]) {
					// The replacement's replay diverged: it is as useless
					// as the replica it was meant to replace.
					kill(idx)
					ok = false
					break
				}
				release(idx)
			}
			if ok {
				return // caught up; joins the next round as a voter
			}
		}
	}

	for liveCount(states) > 0 {
		res.Rounds++
		ctrRounds.Inc()
		// Round r is every live replica's r-th buffer: channels are
		// FIFO, and exactly one buffer per replica is consumed per
		// round, so the receive below blocks only on replicas that have
		// not yet produced this round's buffer — the others were
		// already queued while earlier rounds were being voted. A
		// caught-up replacement's next buffer is exactly the next
		// round's, by construction of the replay.
		msgs := make(map[int]chunk)
		var ids []int
		for i := 0; i < len(writers); i++ {
			if states[i] != rsRunning {
				continue
			}
			m := recv(i)
			if m.err != nil {
				// Crashed replicas are dropped and their final partial
				// buffer is discarded. Full buffers the replica queued
				// before crashing belong to earlier rounds (the err
				// chunk is FIFO-last) and were adjudicated normally.
				states[i] = rsCrashed
				reps[i].Err = m.err
				continue
			}
			msgs[i] = m
			ids = append(ids, i)
		}
		if len(ids) == 0 {
			break
		}
		d := adjudicate(ids, msgs, k)
		if d.noAgreement {
			// All live replicas disagree: an uninitialized read, not a
			// killable minority — terminating, not restarting, is the
			// detection (§3.2).
			res.UninitSuspected = true
			res.Agreed = false
			for _, i := range d.losers {
				kill(i)
			}
			break
		}
		if d.quorumLost {
			res.Agreed = false
		}
		output.Write(msgs[d.winner[0]].data)
		killed := len(d.losers)
		for _, i := range d.losers {
			kill(i)
		}
		for _, i := range d.winner {
			release(i)
			if msgs[i].done {
				states[i] = rsFinished
				reps[i].Completed = true
			}
		}
		for ; killed > 0; killed-- {
			restart()
		}
	}

	wg.Wait()
	res.Output = output.Bytes()
	res.Replicas = make([]ReplicaReport, len(reps))
	for i, r := range reps {
		res.Replicas[i] = *r
	}
}
