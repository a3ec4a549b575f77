package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/vmem"
)

// combo is one combination of the boolean heap options, one bit each.
type combo uint

const (
	optRandomFill combo = 1 << iota
	optConcurrent
	optRemoteRing
	optGenTags
	optQuarantine // every third free through Quarantine
	optTrace      // a flight-recorder ring the run must leave events in
	optTLB
	optHooks // OnAlloc and OnFree
	optAll   = 1<<iota - 1
)

func (c combo) has(o combo) bool { return c&o != 0 }

func (c combo) String() string {
	var on []string
	for i, name := range []string{"RandomFill", "Concurrent", "RemoteRing", "GenTags",
		"Quarantine", "Trace", "EnableTLB", "hooks"} {
		if c.has(1 << i) {
			on = append(on, name)
		}
	}
	return "{" + strings.Join(on, ",") + "}"
}

// The refusal rules, written once. newRefused: the combinations core.New
// refuses. magazineRefused: those NewMagazine refuses on a heap New
// built. shardedRefused: those NewSharded refuses; it forces Concurrent
// on every shard.
func (c combo) newRefused() bool {
	return c.has(optConcurrent) && (c.has(optTLB) || c.has(optRandomFill) || c.has(optHooks)) ||
		c.has(optRemoteRing) && !c.has(optConcurrent)
}

func (c combo) magazineRefused() bool {
	return c.has(optRandomFill) || c.has(optHooks)
}

func (c combo) shardedRefused() bool {
	return c.has(optRandomFill) || c.has(optTLB) || c.has(optHooks)
}

// options returns c's heap options; a traced combination gets a fresh
// ring.
func (c combo) options() Options {
	o := Options{
		HeapSize:   4 << 20,
		Seed:       uint64(c) + 1,
		RandomFill: c.has(optRandomFill),
		Concurrent: c.has(optConcurrent),
		RemoteRing: c.has(optRemoteRing),
		GenTags:    c.has(optGenTags),
		EnableTLB:  c.has(optTLB),
	}
	if c.has(optTrace) {
		o.Trace = obs.NewRecorder(1024).Ring(0)
	}
	if c.has(optHooks) {
		o.OnAlloc = func(heap.Ptr, int, int) {}
		o.OnFree = func(heap.Ptr, int) {}
	}
	return o
}

// quarantiner is the heap a run's quarantined frees go to: the front
// end itself, or a magazine's backing heap.
type quarantiner interface {
	Quarantine(heap.Ptr) error
	FlushQuarantine() int
}

// optionsRun is the short sequential run an accepted combination must
// survive: mixed sizes, a large object, data stores, frees — every
// third one through q.Quarantine when q is set, every other one remote
// where the front end has a RemoteFree — plus a double and a misaligned
// free, then everything freed and the quarantine flushed. It returns
// the first object it allocated, for the Close check.
func optionsRun(a allocator, q quarantiner, mem *vmem.Space) (first heap.Ptr, err error) {
	sizes := []int{8, 64, 300, 2048, MaxObjectSize + 100}
	frees := 0
	free := func(i int, p heap.Ptr) error {
		frees++
		if q != nil && frees%3 == 0 {
			return q.Quarantine(p)
		}
		if rf, ok := a.(interface{ RemoteFree(heap.Ptr) error }); ok && i%2 == 0 {
			return rf.RemoteFree(p)
		}
		return a.Free(p)
	}
	var live []heap.Ptr
	for i := 0; i < 100; i++ {
		p, err := a.Malloc(sizes[i%len(sizes)])
		if err != nil {
			return 0, err
		}
		if err := mem.Store64(p, uint64(i)); err != nil {
			return 0, err
		}
		if i == 0 {
			first = p
		}
		live = append(live, p)
		if i%3 == 2 {
			victim := live[0]
			live = live[1:]
			for _, q := range []heap.Ptr{victim, victim, victim + 1} {
				if err := free(i, q); err != nil {
					return 0, err
				}
			}
		}
	}
	for i, p := range live {
		if err := free(i, p); err != nil {
			return 0, err
		}
	}
	if q != nil {
		q.FlushQuarantine()
	}
	return first, nil
}

// checkTraced holds a traced run to leaving at least one event in its
// ring; an untraced run has none to check.
func checkTraced(o Options) error {
	if o.Trace != nil && o.Trace.Len() == 0 {
		return errors.New("the traced run left no event in its ring")
	}
	return nil
}

// checkClose closes a front end twice and holds Close to its contract:
// a Load64 of p, an object the run allocated, faults with the closed
// reason after the first Close and still after the second, which does
// nothing else.
func checkClose(close func(), mem *vmem.Space, p heap.Ptr) error {
	for i := 1; i <= 2; i++ {
		close()
		if _, err := mem.Load64(p); !errors.Is(err, vmem.ErrClosed) {
			return fmt.Errorf("Load64 after Close #%d: %v, want the closed-space fault", i, err)
		}
	}
	return nil
}

// checkConstruction holds one constructor's verdict on c to the rules:
// a refused combination must return a named error, an accepted one must
// construct and pass run.
func checkConstruction(t *testing.T, c combo, what string, refused bool, err error, run func() error) {
	t.Helper()
	switch {
	case refused && err == nil:
		t.Errorf("%v: %s accepted a combination the rules refuse", c, what)
	case refused && !strings.HasPrefix(err.Error(), "diehard: "):
		t.Errorf("%v: %s refused with an unnamed error: %v", c, what, err)
	case !refused && err != nil:
		t.Errorf("%v: %s refused a combination the rules accept: %v", c, what, err)
	case !refused:
		if err := run(); err != nil {
			t.Errorf("%v: %s run: %v", c, what, err)
		}
	}
}

// quarantine returns q when c sends frees through the quarantine, nil
// otherwise.
func (c combo) quarantine(q quarantiner) quarantiner {
	if c.has(optQuarantine) {
		return q
	}
	return nil
}

// TestOptionsTable walks all 256 combinations of the boolean options
// through core.New, NewMagazine and NewSharded(2, …). Each either
// constructs and survives a short sequential run ending in
// CheckInvariants and Close, or returns an error, exactly as the
// refusal rules above say. A traced run must leave events in its ring.
func TestOptionsTable(t *testing.T) {
	for c := combo(0); c <= optAll; c++ {
		o := c.options()
		h, err := New(o)
		checkConstruction(t, c, "New", c.newRefused(), err, func() error {
			p, err := optionsRun(h, c.quarantine(h), h.Mem())
			if err != nil {
				return err
			}
			if err := h.CheckInvariants(); err != nil {
				return err
			}
			if err := checkTraced(o); err != nil {
				return err
			}
			return checkClose(h.Close, h.Mem(), p)
		})
		if !c.newRefused() {
			o := c.options()
			h, err := New(o)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			m, err := h.NewMagazine()
			checkConstruction(t, c, "NewMagazine", c.magazineRefused(), err, func() error {
				p, err := optionsRun(m, c.quarantine(h), h.Mem())
				if err != nil {
					return err
				}
				m.Close()
				if err := h.CheckInvariants(); err != nil {
					return err
				}
				if err := checkTraced(o); err != nil {
					return err
				}
				return checkClose(h.Close, h.Mem(), p)
			})
		}
		so := c.options()
		sh, err := NewSharded(2, so)
		checkConstruction(t, c, "NewSharded", c.shardedRefused(), err, func() error {
			p, err := optionsRun(sh, c.quarantine(sh), sh.Mem())
			if err != nil {
				return err
			}
			if err := sh.CheckInvariants(); err != nil {
				return err
			}
			if err := checkTraced(so); err != nil {
				return err
			}
			// A shard did not build the shared space, so closing it
			// leaves the space serving the other shard.
			sh.Shard(0).Close()
			if _, err := sh.Mem().Load64(p); err != nil {
				return fmt.Errorf("Load64 after Shard(0).Close: %v", err)
			}
			return checkClose(sh.Close, sh.Mem(), p)
		})
	}
}
