package replicate

import "bytes"

// This file is the voting core: the chunk message format, the 64-bit
// chunk hash, and the §5.2 adjudication of one round. The tests' offline
// reference restates the adjudication rule on raw bytes, calling neither
// chunkHash nor adjudicate, so it checks hash-then-vote as well.

// chunk is one voting-round message from a replica to the voter: up to
// BufferSize bytes of staged output, tagged with its 64-bit hash so the
// voter can group buffers without touching their bytes (hash-then-vote,
// DESIGN.md §8). done marks the replica's final, possibly-partial
// buffer; err carries the program error of a crashed replica.
type chunk struct {
	data []byte
	hash uint64
	done bool
	err  error
}

// chunkHash tags a voting buffer with 64-bit FNV-1a over its bytes plus
// the done flag, so a final partial buffer never groups with a full
// buffer of identical bytes. The hash is computed in the replica's own
// goroutine, off the voter's critical path. FNV-1a is inlined rather
// than taken from hash/fnv because this runs once per buffer inside
// every replica's write path: the open-coded loop keeps it
// allocation-free and inlinable, where hash/fnv allocates a hash.Hash64
// per call (non-hot-path hashing, like exps.ScalingPoint.OutputHash,
// uses the stdlib).
func chunkHash(data []byte, done bool) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	if done {
		h ^= 0xff
		h *= prime64
	}
	return h
}

// decision is the voter's adjudication of one round.
type decision struct {
	// winner holds the replica ids of the committed agreement group;
	// msgs[winner[0]].data is the committed buffer. Empty only when
	// noAgreement is set.
	winner []int
	// losers are live replicas killed this round for disagreeing.
	losers []int
	// noAgreement: no two replicas agree and more than one answer
	// exists — §3.2's uninitialized-read detection; the run terminates.
	noAgreement bool
	// quorumLost: the buffer was committed by a lone replica in a run
	// that started with several (availability streaming, not agreement).
	quorumLost bool
}

// adjudicate decides one voting round per §5.2. ids are the live
// replicas in ascending order; msgs their buffers; k the run's original
// replica count. Buffers are grouped hash-first: byte comparison runs
// only between hash-equal buffers (confirming agreement exactly, so a
// hash collision can never merge replicas that §5.2's byte-wise protocol
// would separate), and buffers with different hashes are already known
// unequal. The winner is the largest group; ties break to the group
// containing the smallest replica id, so the commit is deterministic for
// any replica count.
func adjudicate(ids []int, msgs map[int]chunk, k int) decision {
	type group struct {
		repr chunk
		ids  []int
	}
	var groups []*group
	byHash := make(map[uint64][]*group, len(ids))
	for _, id := range ids {
		m := msgs[id]
		var g *group
		for _, cand := range byHash[m.hash] {
			if cand.repr.done == m.done && bytes.Equal(cand.repr.data, m.data) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{repr: m}
			groups = append(groups, g)
			byHash[m.hash] = append(byHash[m.hash], g)
		}
		g.ids = append(g.ids, id)
	}
	win := groups[0]
	for _, g := range groups[1:] {
		// Strict >: the earliest-created group (the one holding the
		// smallest replica id) wins ties.
		if len(g.ids) > len(win.ids) {
			win = g
		}
	}
	var d decision
	if len(groups) > 1 && len(win.ids) < 2 {
		// No two replicas agree: terminate, killing every live replica.
		d.noAgreement = true
		d.losers = ids
		return d
	}
	d.winner = win.ids
	if k > 1 && len(win.ids) < 2 {
		d.quorumLost = true
	}
	inWinner := make(map[int]bool, len(win.ids))
	for _, id := range win.ids {
		inWinner[id] = true
	}
	for _, id := range ids {
		if !inWinner[id] {
			d.losers = append(d.losers, id)
		}
	}
	return d
}

// replicaState tracks a replica through the voter's run.
type replicaState int

const (
	rsRunning replicaState = iota
	rsFinished
	rsCrashed
	rsKilled
)

// liveCount counts replicas still producing buffers.
func liveCount(states []replicaState) int {
	n := 0
	for _, s := range states {
		if s == rsRunning {
			n++
		}
	}
	return n
}
