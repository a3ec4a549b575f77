package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// The flight recorder: per-worker lock-free ring buffers of fixed-size
// binary trace events, merged on demand into one stamp-ordered
// timeline, so a corruption or latency spike can be replayed backwards
// to its cause.
//
// # Slot layout and seqlock protocol
//
// Each slot is 16 bytes — two uint64 words:
//
//	seq  — a globally unique Lamport stamp drawn from the recorder's
//	       atomic counter; 0 means empty or mid-write.
//	word — arg(48 bits) | kind(8 bits) | worker(8 bits), packed.
//
// A writer claims a stamp (one atomic add on the recorder), claims a
// slot position (one atomic add on the ring), then publishes with a
// per-slot seqlock: store seq=0 (release), store word, store
// seq=stamp (release). A reader loads seq, word, seq again (acquire)
// and accepts the slot only when both seq reads agree and are
// non-zero. Because stamps are globally unique and never reused, the
// classic seqlock ABA (a slot rewritten to the same version between
// the two reads) cannot validate: a torn read always sees either 0 or
// two different stamps. A reader that loses the race simply skips the
// slot — the recorder is a diagnostic tail, deliberately lossy at the
// margin, never blocking a writer.
//
// # Ordering model
//
// "Time-ordered" means Lamport-stamp-ordered: the stamp counter is a
// single atomic, so the merged timeline is a total order consistent
// with the real event order at each worker (one goroutine's emits get
// strictly increasing stamps) and with cross-worker causality through
// the counter itself. No clock reads on the hot path.
//
// # Disabled path
//
// The zero value of every handle is off. Emit on a nil *Ring returns
// immediately; instrumented call sites additionally guard with their
// own nil check so the disabled hot path is exactly one predictable
// branch — the same discipline as the vmem TLB hook. The core tests
// require the 64 B malloc/free pair to allocate nothing with a ring nil
// or live.

// Kind is the event type, one byte in the packed word.
type Kind uint8

const (
	EvNone Kind = iota
	EvMalloc
	EvFree
	EvRemoteFree
	EvDrain
	EvSteal
	EvRefill
	EvFlush
	EvBarrier
	EvEvidence
	EvCountermeasure
	EvQuarantine
	EvSession
	EvFault
	EvStaleFree
)

var kindNames = [...]string{
	EvNone:           "none",
	EvMalloc:         "malloc",
	EvFree:           "free",
	EvRemoteFree:     "remote_free",
	EvDrain:          "drain",
	EvSteal:          "steal",
	EvRefill:         "refill",
	EvFlush:          "flush",
	EvBarrier:        "barrier",
	EvEvidence:       "evidence",
	EvCountermeasure: "countermeasure",
	EvQuarantine:     "quarantine",
	EvSession:        "session",
	EvFault:          "fault",
	EvStaleFree:      "stale_free",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

const argMask = (uint64(1) << 48) - 1

// slot is one 16-byte trace record (see the seqlock protocol above).
type slot struct {
	seq  uint64
	word uint64
}

// Ring is one worker's trace ring. Writers never block and never
// allocate; a full ring overwrites its oldest events. Multiple
// goroutines may share a ring (position claims are atomic), though
// the natural grain is one ring per worker.
type Ring struct {
	rec    *Recorder
	worker uint8
	mask   uint64
	pos    uint64 // next slot index, claimed by atomic add
	slots  []slot
}

// Emit records one event. Nil-safe: a nil ring is the disabled
// recorder and returns after one branch. arg is truncated to 48 bits
// (heap addresses, counts, and site indices all fit).
func (r *Ring) Emit(kind Kind, arg uint64) {
	if r == nil {
		return
	}
	stamp := atomic.AddUint64(&r.rec.stamp, 1)
	i := (atomic.AddUint64(&r.pos, 1) - 1) & r.mask
	s := &r.slots[i]
	word := (arg & argMask) | uint64(kind)<<48 | uint64(r.worker)<<56
	atomic.StoreUint64(&s.seq, 0)
	atomic.StoreUint64(&s.word, word)
	atomic.StoreUint64(&s.seq, stamp)
}

// Len returns the number of live events in the ring (capped at its
// size once wrapped).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	n := atomic.LoadUint64(&r.pos)
	if n > r.mask+1 {
		n = r.mask + 1
	}
	return int(n)
}

// Event is one decoded trace record.
type Event struct {
	Seq    uint64 `json:"seq"`
	Worker int    `json:"worker"`
	Kind   string `json:"kind"`
	Arg    uint64 `json:"arg"`
}

// Recorder owns the stamp counter and the rings. The zero value of
// *Recorder (nil) is the disabled recorder: Ring returns nil, Emit on
// that nil ring is one branch, Snapshot is empty.
type Recorder struct {
	stamp uint64 // Lamport clock; pad-separated from the ring map below
	_     [7]uint64

	mu    sync.Mutex
	size  int
	rings map[int]*Ring
}

// NewRecorder builds a recorder whose rings hold ringSlots events
// each (rounded up to a power of two; minimum 16).
func NewRecorder(ringSlots int) *Recorder {
	size := 16
	for size < ringSlots {
		size <<= 1
	}
	return &Recorder{size: size, rings: map[int]*Ring{}}
}

// Ring returns the ring for this worker id (0..255), creating it on
// first use. Returns nil on a nil recorder, so callers can hold the
// result unconditionally and rely on Emit's nil check.
func (rec *Recorder) Ring(worker int) *Ring {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if r, ok := rec.rings[worker]; ok {
		return r
	}
	r := &Ring{
		rec:    rec,
		worker: uint8(worker),
		mask:   uint64(rec.size) - 1,
		slots:  make([]slot, rec.size),
	}
	rec.rings[worker] = r
	return r
}

// Snapshot collects every valid slot from every ring and returns the
// merged timeline sorted by stamp — a total order, monotone per
// worker. Safe concurrently with writers: slots mid-write fail the
// seqlock check and are skipped. Returns nil on a nil recorder.
func (rec *Recorder) Snapshot() []Event {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	rings := make([]*Ring, 0, len(rec.rings))
	for _, r := range rec.rings {
		rings = append(rings, r)
	}
	rec.mu.Unlock()

	var evs []Event
	for _, r := range rings {
		for i := range r.slots {
			s := &r.slots[i]
			seq1 := atomic.LoadUint64(&s.seq)
			if seq1 == 0 {
				continue
			}
			word := atomic.LoadUint64(&s.word)
			seq2 := atomic.LoadUint64(&s.seq)
			if seq1 != seq2 {
				continue
			}
			evs = append(evs, Event{
				Seq:    seq1,
				Worker: int(word >> 56),
				Kind:   Kind(word >> 48 & 0xFF).String(),
				Arg:    word & argMask,
			})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	return evs
}

// Tail returns the last n events of the merged timeline.
func (rec *Recorder) Tail(n int) []Event {
	evs := rec.Snapshot()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// TraceJSON marshals the merged timeline (an empty recorder renders
// as [], not null).
func (rec *Recorder) TraceJSON() ([]byte, error) {
	evs := rec.Snapshot()
	if evs == nil {
		evs = []Event{}
	}
	return json.Marshal(evs)
}

// WriteDump writes the document a command's -obs flag dumps: the
// registry's full metric tree and the last 256 events of the merged
// timeline, as indented JSON.
func WriteDump(w io.Writer, reg *Registry, rec *Recorder) error {
	doc := struct {
		Metrics []MetricPoint `json:"metrics"`
		Trace   []Event       `json:"trace"`
	}{reg.Snapshot().Metrics, rec.Tail(256)}
	if doc.Trace == nil {
		doc.Trace = []Event{}
	}
	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(enc, '\n'))
	return err
}
