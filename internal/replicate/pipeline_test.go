package replicate

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"diehard/internal/detect"
)

// Tests for the pipelined hash-then-vote voter (DESIGN.md §8). The
// contract under test: pipelining changes when replicas execute, never
// what the voter commits.

// chunkedProgram writes `rounds` buffers of `size` bytes with
// deterministic contents, doing a little heap work per round so there is
// real execution to overlap with voting.
func chunkedProgram(rounds, size int, deviant int, deviateAt int) Program {
	return func(ctx *Context) error {
		for r := 0; r < rounds; r++ {
			p, err := ctx.Alloc.Malloc(size)
			if err != nil {
				return err
			}
			fill := byte(r + 1)
			if ctx.Replica == deviant && r >= deviateAt {
				fill = 0xBD // the corrupted replica's divergent output
			}
			if err := ctx.Mem.Memset(p, fill, size); err != nil {
				return err
			}
			out := make([]byte, size)
			if err := ctx.Mem.ReadBytes(p, out); err != nil {
				return err
			}
			if err := ctx.Alloc.Free(p); err != nil {
				return err
			}
			if _, err := ctx.Out.Write(out); err != nil {
				return err
			}
		}
		return nil
	}
}

// resultFingerprint strips the fields the voter's scheduling may not
// influence down to a comparable value.
func resultFingerprint(res *Result) string {
	s := fmt.Sprintf("agreed=%v uninit=%v survivors=%d rounds=%d out=%x",
		res.Agreed, res.UninitSuspected, res.Survivors, res.Rounds, res.Output)
	for _, r := range res.Replicas {
		s += fmt.Sprintf(" [seed=%x killed=%v completed=%v crashed=%v]", r.Seed, r.Killed, r.Completed, r.Err != nil)
	}
	return s
}

// recorder is the offline reference's replicaWriter: it cuts a
// replica's output into BufferSize buffers as pipeWriter does, and keeps
// them for the vote instead of sending them to a voter.
type recorder struct {
	buf  []byte
	bufs []recorded
}

// recorded is one buffer of a replica's output: done marks the final,
// possibly partial one, err a crashed replica's program error.
type recorded struct {
	data []byte
	done bool
	err  error
}

func (w *recorder) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for len(w.buf) >= BufferSize {
		w.bufs = append(w.bufs, recorded{data: bytes.Clone(w.buf[:BufferSize])})
		w.buf = w.buf[BufferSize:]
	}
	return len(p), nil
}

func (w *recorder) finish(progErr error) {
	w.bufs = append(w.bufs, recorded{data: w.buf, done: true, err: progErr})
}

// voteOffline is the paper's lock-step protocol as a sequential
// reference: it re-executes every replica of the finished run res with
// that replica's seed through runReplica (so heap construction, the
// virtual clock, panics and crash errors are the product's own), records
// each replica's whole output, and then votes round by round over the
// recorded buffers with no goroutines, channels or credit. It compares
// raw bytes and calls neither chunkHash nor adjudicate. Runs with
// restarts are out of its scope.
func voteOffline(prog Program, input []byte, opts Options, res *Result) *Result {
	k := len(res.Replicas)
	recs := make([]*recorder, k)
	ref := &Result{Agreed: true, Replicas: make([]ReplicaReport, k)}
	for i := range recs {
		recs[i] = &recorder{}
		ref.Replicas[i].Seed = res.Replicas[i].Seed
		runReplica(i, prog, input, opts, ref.Replicas[i].Seed, recs[i], &ReplicaReport{})
	}
	live := func(i int) bool {
		r := &ref.Replicas[i]
		return !r.Killed && !r.Completed && r.Err == nil
	}
	for round := 0; ; round++ {
		var running []int
		for i := 0; i < k; i++ {
			if live(i) {
				running = append(running, i)
			}
		}
		if len(running) == 0 {
			break
		}
		ref.Rounds++
		// A crashed replica's final, partial buffer is discarded.
		var ids []int
		for _, i := range running {
			if err := recs[i].bufs[round].err; err != nil {
				ref.Replicas[i].Err = err
				continue
			}
			ids = append(ids, i)
		}
		if len(ids) == 0 {
			break
		}
		// Identical (bytes, done) buffers form a group.
		buf := func(i int) recorded { return recs[i].bufs[round] }
		var groups [][]int
		for _, i := range ids {
			g := 0
			for ; g < len(groups); g++ {
				a, b := buf(groups[g][0]), buf(i)
				if a.done == b.done && bytes.Equal(a.data, b.data) {
					break
				}
			}
			if g == len(groups) {
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], i)
		}
		// The largest group wins; a tie goes to the group holding the
		// smallest replica id.
		win := groups[0]
		for _, g := range groups[1:] {
			if len(g) > len(win) || len(g) == len(win) && g[0] < win[0] {
				win = g
			}
		}
		if len(groups) > 1 && len(win) < 2 {
			// No two replicas agree: a suspected uninitialized read
			// ends the run, and every live replica dies.
			ref.UninitSuspected = true
			ref.Agreed = false
			for _, i := range ids {
				ref.Replicas[i].Killed = true
			}
			break
		}
		if k > 1 && len(win) < 2 {
			ref.Agreed = false // a lone winner has no quorum
		}
		ref.Output = append(ref.Output, buf(win[0]).data...)
		for _, i := range ids {
			if !slices.Contains(win, i) {
				ref.Replicas[i].Killed = true
			}
		}
		for _, i := range win {
			if buf(i).done {
				ref.Replicas[i].Completed = true
			}
		}
	}
	for _, r := range ref.Replicas {
		if r.Completed {
			ref.Survivors++
		}
	}
	if ref.Survivors == 0 {
		ref.Agreed = false
	}
	return ref
}

// crashAt wraps replica ctx's output so that the replica writes its
// first n bytes and then crashes on a wild read (the simulated
// SIGSEGV), leaving a partial buffer staged.
func crashAt(ctx *Context, n int) {
	orig, written := ctx.Out, 0
	ctx.Out = writerFunc(func(p []byte) (int, error) {
		if written+len(p) > n {
			if _, err := orig.Write(p[:n-written]); err != nil {
				return 0, err
			}
			written = n
			if _, err := ctx.Mem.Load8(0xdead0000); err != nil {
				return 0, err
			}
			return 0, errors.New("wild read did not fault")
		}
		written += len(p)
		return orig.Write(p)
	})
}

// divergeAfter wraps replica ctx's output so that every byte after the
// first n is replaced by fill: replicas given the same fill diverge
// from the rest identically.
func divergeAfter(ctx *Context, n int, fill byte) {
	orig, written := ctx.Out, 0
	ctx.Out = writerFunc(func(p []byte) (int, error) {
		q := bytes.Clone(p)
		for j := range q {
			if written+j >= n {
				q[j] = fill
			}
		}
		written += len(p)
		return orig.Write(q)
	})
}

func TestVoterMatchesOfflineVote(t *testing.T) {
	// The golden acceptance test: for any replica count, with and
	// without a mid-stream deviant, on plain runs, with a replica
	// crashing mid-buffer, and with two replicas diverging identically
	// (a 2–2 tie at k = 4), the voter commits exactly what the offline
	// lock-step vote commits and reports identical fates.
	const rounds = 6
	scenarios := []struct {
		name string
		wrap func(ctx *Context)
	}{
		{"plain", func(*Context) {}},
		{"crash0", func(ctx *Context) {
			if ctx.Replica == 0 {
				crashAt(ctx, 5*BufferSize/2)
			}
		}},
		{"pair13", func(ctx *Context) {
			if ctx.Replica == 1 || ctx.Replica == 3 {
				divergeAfter(ctx, 2*BufferSize, 0x5A)
			}
		}},
	}
	for _, k := range []int{1, 2, 3, 4, 5, 8} {
		for _, deviant := range []int{-1, 2} {
			for _, sc := range scenarios {
				sc := sc
				name := fmt.Sprintf("k=%d/deviant=%d/%s", k, deviant, sc.name)
				base := chunkedProgram(rounds, BufferSize, deviant, 3)
				prog := func(ctx *Context) error {
					sc.wrap(ctx)
					return base(ctx)
				}
				opts := Options{Replicas: k, HeapSize: testHeap, Seed: 77}
				res, err := Run(prog, nil, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref := voteOffline(prog, nil, opts, res)
				if a, b := resultFingerprint(res), resultFingerprint(ref); a != b {
					t.Errorf("%s: voter disagrees with the offline vote\nvoter:   %s\noffline: %s", name, a, b)
				}
			}
		}
	}
}

func TestPipelinedMidStreamDivergenceWithLaggingReplica(t *testing.T) {
	// Replica 1 emits three correct buffers and then diverges; replica 2
	// lags behind the others, so the healthy majority runs several
	// buffers ahead through the pipeline while rounds are still being
	// adjudicated. The deviant must die at its fourth buffer and the
	// majority's full output must be committed.
	const (
		rounds = 8
		size   = BufferSize
	)
	prog := chunkedProgram(rounds, size, 1, 3)
	lagged := func(ctx *Context) error {
		if ctx.Replica == 2 {
			orig := ctx.Out
			ctx.Out = writerFunc(func(p []byte) (int, error) {
				time.Sleep(time.Millisecond)
				return orig.Write(p)
			})
		}
		return prog(ctx)
	}
	res, err := Run(lagged, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for r := 0; r < rounds; r++ {
		want.Write(bytes.Repeat([]byte{byte(r + 1)}, size))
	}
	if !bytes.Equal(res.Output, want.Bytes()) {
		t.Fatalf("committed output corrupted: got %d bytes, want %d", len(res.Output), want.Len())
	}
	if !res.Replicas[1].Killed {
		t.Fatalf("mid-stream deviant survived: %+v", res)
	}
	if res.Survivors != 2 || !res.Agreed {
		t.Fatalf("result %+v", res)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestPipelinedAllDisagreeTerminates(t *testing.T) {
	// Every replica produces a different stream (the signature of an
	// uninitialized read, §3.2): the run must terminate at the first
	// round, commit nothing, and unwind every replica with ErrKilled.
	errs := make(chan error, 3)
	prog := func(ctx *Context) error {
		payload := bytes.Repeat([]byte{byte(ctx.Replica + 1)}, BufferSize)
		for i := 0; i < PipelineDepth+2; i++ {
			if _, err := ctx.Out.Write(payload); err != nil {
				errs <- err
				return err
			}
		}
		errs <- nil
		return nil
	}
	res, err := Run(prog, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UninitSuspected || res.Agreed || len(res.Output) != 0 {
		t.Fatalf("result %+v", res)
	}
	for i := 0; i < 3; i++ {
		if e := <-errs; !errors.Is(e, ErrKilled) {
			t.Fatalf("replica unwound with %v, want ErrKilled", e)
		}
	}
}

func TestPipelinedCrashDuringVoteIsDiscarded(t *testing.T) {
	// Replica 0 crashes (a wild read, the simulated SIGSEGV) after two
	// good buffers while the survivors — slowed so the crash message
	// waits in the pipeline during adjudication — continue to the end.
	// The crash must discard replica 0's staged partial output and
	// nothing else.
	const (
		rounds = 6
		size   = BufferSize
	)
	prog := chunkedProgram(rounds, size, -1, 0)
	crashy := func(ctx *Context) error {
		if ctx.Replica == 0 {
			crashAt(ctx, 2*size)
		} else if ctx.Replica == 2 {
			orig := ctx.Out
			ctx.Out = writerFunc(func(p []byte) (int, error) {
				time.Sleep(time.Millisecond)
				return orig.Write(p)
			})
		}
		return prog(ctx)
	}
	res, err := Run(crashy, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for r := 0; r < rounds; r++ {
		want.Write(bytes.Repeat([]byte{byte(r + 1)}, size))
	}
	if !bytes.Equal(res.Output, want.Bytes()) {
		t.Fatalf("survivor output corrupted: got %d bytes, want %d", len(res.Output), want.Len())
	}
	if res.Replicas[0].Err == nil {
		t.Fatal("crashed replica has no recorded error")
	}
	if res.Replicas[0].Killed || res.Replicas[0].Completed {
		t.Fatalf("crash misclassified: %+v", res.Replicas[0])
	}
	if res.Survivors != 2 || !res.Agreed {
		t.Fatalf("result %+v", res)
	}
}

func TestPipelinedVoterStress(t *testing.T) {
	// Eight replicas, many small rounds, a mid-stream deviant and a
	// laggard: the concurrency soak the CI race job runs. Output
	// correctness is asserted exactly, not statistically.
	const (
		k      = 8
		rounds = 48
		size   = BufferSize
	)
	prog := chunkedProgram(rounds, size, 5, 17)
	mixed := func(ctx *Context) error {
		if ctx.Replica == 3 {
			orig := ctx.Out
			ctx.Out = writerFunc(func(p []byte) (int, error) {
				time.Sleep(50 * time.Microsecond)
				return orig.Write(p)
			})
		}
		return prog(ctx)
	}
	res, err := Run(mixed, nil, Options{Replicas: k, HeapSize: testHeap, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for r := 0; r < rounds; r++ {
		want.Write(bytes.Repeat([]byte{byte(r + 1)}, size))
	}
	if !bytes.Equal(res.Output, want.Bytes()) {
		t.Fatalf("stress output corrupted: got %d bytes, want %d", len(res.Output), want.Len())
	}
	if !res.Replicas[5].Killed || res.Survivors != k-1 || !res.Agreed {
		t.Fatalf("result %+v", res)
	}
}

func TestAdaptiveWindowController(t *testing.T) {
	// Drives one pipeWriter's credit window directly. A writer the
	// voter always finds saturated widens one unit per release up to
	// the 2×base cap; a writer the voter always finds drained narrows
	// to the lock-step floor (window 1, with ±1 dither because a
	// exactly-matched pair re-triggers the saturation rule).
	const base = PipelineDepth
	w := newPipeWriter()
	fill := func() {
		for {
			w.mu.Lock()
			full := w.inFlight >= w.window
			w.mu.Unlock()
			if full {
				return
			}
			if !w.acquire() {
				t.Fatal("acquire refused credit on a live writer")
			}
		}
	}
	win := base
	for i := 0; i < 3*base; i++ {
		fill()
		win = w.release()
		if win < 1 || win > 2*base {
			t.Fatalf("window %d escaped [1, %d]", win, 2*base)
		}
	}
	if win != 2*base {
		t.Fatalf("saturated writer's window = %d, want cap %d", win, 2*base)
	}
	w.mu.Lock()
	pending := w.inFlight
	w.mu.Unlock()
	for j := 0; j < pending; j++ {
		win = w.release()
	}
	for i := 0; i < 4*base; i++ {
		if !w.acquire() {
			t.Fatal("acquire refused credit on a live writer")
		}
		win = w.release()
		if win < 1 {
			t.Fatalf("window %d fell below 1", win)
		}
	}
	if win > 2 {
		t.Fatalf("drained writer's window = %d, want lock-step floor (1, dither 2)", win)
	}
	w.markDead()
	if w.acquire() {
		t.Fatal("acquire granted credit after markDead")
	}
}

func TestAdaptiveWindowWidensUnderLaggard(t *testing.T) {
	// One replica sleeps on every write; the fast siblings saturate
	// their allowance while the voter waits on it, so their windows
	// widen past PipelineDepth — and the committed output is still
	// byte-exact.
	const (
		rounds = 32
		size   = BufferSize
	)
	prog := chunkedProgram(rounds, size, -1, 0)
	mixed := func(ctx *Context) error {
		if ctx.Replica == 0 {
			orig := ctx.Out
			ctx.Out = writerFunc(func(p []byte) (int, error) {
				time.Sleep(200 * time.Microsecond)
				return orig.Write(p)
			})
		}
		return prog(ctx)
	}
	res, err := Run(mixed, nil, Options{Replicas: 3, HeapSize: testHeap, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for r := 0; r < rounds; r++ {
		want.Write(bytes.Repeat([]byte{byte(r + 1)}, size))
	}
	if !bytes.Equal(res.Output, want.Bytes()) {
		t.Fatalf("laggard run corrupted output: got %d bytes, want %d", len(res.Output), want.Len())
	}
	if !res.Agreed || res.Survivors != 3 {
		t.Fatalf("result %+v", res)
	}
	if res.PipelineDepthPeak <= PipelineDepth || res.PipelineDepthPeak > 2*PipelineDepth {
		t.Fatalf("peak window %d, want in (%d, %d]", res.PipelineDepthPeak, PipelineDepth, 2*PipelineDepth)
	}
}

// --- replica restart (Options.MaxRestarts) ---

func TestRestartRestoresQuorum(t *testing.T) {
	const rounds = 6
	prog := chunkedProgram(rounds, BufferSize, 2, 2)
	res, err := Run(prog, nil, Options{
		Replicas: 3, Seed: 0x0e57a87, HeapSize: 8 << 20, MaxRestarts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for r := 0; r < rounds; r++ {
		want.Write(bytes.Repeat([]byte{byte(r + 1)}, BufferSize))
	}
	if !bytes.Equal(res.Output, want.Bytes()) {
		t.Fatalf("restarted run committed wrong output (%d bytes, want %d)", len(res.Output), want.Len())
	}
	if !res.Agreed {
		t.Error("quorum was restored but the run is not marked agreed")
	}
	if res.Survivors != 3 {
		t.Errorf("survivors = %d, want 3 (replacement restored the quorum)", res.Survivors)
	}
	if len(res.Replicas) != 4 {
		t.Fatalf("replica reports = %d, want 4 (3 originals + 1 replacement)", len(res.Replicas))
	}
	if !res.Replicas[2].Killed {
		t.Error("the deviant replica was not killed")
	}
	rep := res.Replicas[3]
	if !rep.Restarted || !rep.Completed || rep.Killed {
		t.Errorf("replacement report = %+v, want restarted and completed", rep)
	}
	if rep.Seed == 0 || rep.Seed == res.Replicas[2].Seed {
		t.Error("replacement did not get a fresh derived seed")
	}
}

func TestRestartBudgetExhaustedByPersistentDivergence(t *testing.T) {
	// Every replica index >= 2 deviates, so each replacement's replay
	// diverges from the committed prefix and is killed in turn until the
	// budget runs out; the two honest replicas finish as the quorum.
	const rounds = 4
	prog := func(ctx *Context) error {
		for r := 0; r < rounds; r++ {
			fill := byte(r + 1)
			if ctx.Replica >= 2 && r >= 1 {
				fill = 0xBD ^ byte(ctx.Replica)
			}
			if _, err := ctx.Out.Write(bytes.Repeat([]byte{fill}, BufferSize)); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := Run(prog, nil, Options{
		Replicas: 3, Seed: 0xbad5eed, HeapSize: 8 << 20, MaxRestarts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replicas) != 5 {
		t.Fatalf("replica reports = %d, want 5 (3 originals + 2 failed replacements)", len(res.Replicas))
	}
	killed := 0
	for _, rep := range res.Replicas {
		if rep.Killed {
			killed++
		}
	}
	if killed != 3 {
		t.Errorf("killed = %d, want 3 (deviant + both replacements)", killed)
	}
	if res.Survivors != 2 {
		t.Errorf("survivors = %d, want the 2 honest replicas", res.Survivors)
	}
	var want bytes.Buffer
	for r := 0; r < rounds; r++ {
		want.Write(bytes.Repeat([]byte{byte(r + 1)}, BufferSize))
	}
	if !bytes.Equal(res.Output, want.Bytes()) {
		t.Error("committed output corrupted by failed restarts")
	}
}

// TestKilledReplicaEvidenceFeedsTriage is the detection integration:
// the deviant replica corrupts its own heap (an overflow) before
// diverging; after the voter kills it, its canary evidence is in the
// report and TriageKilled localizes the culprit allocation site.
func TestKilledReplicaEvidenceFeedsTriage(t *testing.T) {
	prog := func(ctx *Context) error {
		p, err := ctx.Alloc.Malloc(56)
		if err != nil {
			return err
		}
		n := 56
		if ctx.Replica == 2 {
			n = 60 // 4 bytes past the request: the heap error
		}
		if err := ctx.Mem.Memset(p, 'A', n); err != nil {
			return err
		}
		if err := ctx.Alloc.Free(p); err != nil {
			return err
		}
		out := bytes.Repeat([]byte{'o'}, BufferSize)
		if ctx.Replica == 2 {
			out[17] = 'X' // ...and the divergent output that gets it killed
		}
		_, err = ctx.Out.Write(out)
		return err
	}
	res, err := Run(prog, nil, Options{
		Replicas: 3, Seed: 0xde7ec7, HeapSize: 8 << 20, Detect: true, MaxRestarts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replicas[2].Killed {
		t.Fatal("deviant replica was not killed")
	}
	if len(res.Replicas[2].Evidence) == 0 {
		t.Fatal("killed replica carried no detection evidence")
	}
	tri := res.TriageKilled(detect.KindOverflow)
	if tri == nil {
		t.Fatal("TriageKilled returned nil")
	}
	if tri.Culprit != 0 {
		t.Errorf("culprit site = %d (votes %v), want 0", tri.Culprit, tri.Votes)
	}
	// Honest replicas carry no evidence; their reports must stay clean.
	for i := 0; i < 2; i++ {
		if len(res.Replicas[i].Evidence) != 0 {
			t.Errorf("honest replica %d has evidence: %+v", i, res.Replicas[i].Evidence)
		}
	}
	if res.Survivors != 3 {
		t.Errorf("survivors = %d, want 3 (restart restored the quorum)", res.Survivors)
	}
}
