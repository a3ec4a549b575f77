package core

import (
	"strings"
	"testing"

	"diehard/internal/heap"
	"diehard/internal/vmem"
)

// combo is one combination of the boolean heap options, one bit each.
type combo uint

const (
	optRandomFill combo = 1 << iota
	optConcurrent
	optRemoteRing
	optGenTags
	optFreeFilter
	optAdaptive
	optTLB
	optHooks // OnAlloc and OnFree
	optAll   = 1<<iota - 1
)

func (c combo) has(o combo) bool { return c&o != 0 }

func (c combo) String() string {
	var on []string
	for i, name := range []string{"RandomFill", "Concurrent", "RemoteRing", "GenTags",
		"FreeFilter", "Adaptive", "EnableTLB", "hooks"} {
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
	return c.has(optTLB) && c.has(optConcurrent) ||
		c.has(optRandomFill) && c.has(optConcurrent) ||
		c.has(optRemoteRing) && (!c.has(optConcurrent) || c.has(optHooks))
}

func (c combo) magazineRefused() bool {
	return c.has(optRandomFill) || c.has(optHooks)
}

func (c combo) shardedRefused() bool {
	return c.has(optRandomFill) || c.has(optTLB) || c.has(optRemoteRing) && c.has(optHooks)
}

func (c combo) options() Options {
	o := Options{
		HeapSize:        4 << 20,
		Seed:            uint64(c) + 1,
		RandomFill:      c.has(optRandomFill),
		Concurrent:      c.has(optConcurrent),
		RemoteRing:      c.has(optRemoteRing),
		GenTags:         c.has(optGenTags),
		Adaptive:        c.has(optAdaptive),
		AdaptiveInitial: 4 << 10,
		EnableTLB:       c.has(optTLB),
	}
	if c.has(optFreeFilter) {
		frees := 0
		o.FreeFilter = func(heap.Ptr, int) bool { frees++; return frees%3 == 0 }
	}
	if c.has(optHooks) {
		o.OnAlloc = func(heap.Ptr, int, int) {}
		o.OnFree = func(heap.Ptr, int) {}
	}
	return o
}

// optionsRun is the short sequential run an accepted combination must
// survive: mixed sizes, a large object, data stores, frees — every
// other one remote where the front end has a RemoteFree — plus a
// double and a misaligned free, then everything freed.
func optionsRun(a allocator, mem *vmem.Space) error {
	sizes := []int{8, 64, 300, 2048, MaxObjectSize + 100}
	free := func(i int, p heap.Ptr) error {
		if rf, ok := a.(interface{ RemoteFree(heap.Ptr) error }); ok && i%2 == 0 {
			return rf.RemoteFree(p)
		}
		return a.Free(p)
	}
	var live []heap.Ptr
	for i := 0; i < 100; i++ {
		p, err := a.Malloc(sizes[i%len(sizes)])
		if err != nil {
			return err
		}
		if err := mem.Store64(p, uint64(i)); err != nil {
			return err
		}
		live = append(live, p)
		if i%3 == 2 {
			victim := live[0]
			live = live[1:]
			for _, q := range []heap.Ptr{victim, victim, victim + 1} {
				if err := free(i, q); err != nil {
					return err
				}
			}
		}
	}
	for i, p := range live {
		if err := free(i, p); err != nil {
			return err
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

// TestOptionsTable walks all 256 combinations of the boolean options
// through core.New, NewMagazine and NewSharded(2, …). Each either
// constructs and survives a short sequential run ending in
// CheckInvariants, or returns an error, exactly as the refusal rules
// above say.
func TestOptionsTable(t *testing.T) {
	for c := combo(0); c <= optAll; c++ {
		h, err := New(c.options())
		checkConstruction(t, c, "New", c.newRefused(), err, func() error {
			if err := optionsRun(h, h.Mem()); err != nil {
				return err
			}
			return h.CheckInvariants()
		})
		if !c.newRefused() {
			h, err := New(c.options())
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			m, err := h.NewMagazine()
			checkConstruction(t, c, "NewMagazine", c.magazineRefused(), err, func() error {
				if err := optionsRun(m, h.Mem()); err != nil {
					return err
				}
				m.Close()
				return h.CheckInvariants()
			})
		}
		sh, err := NewSharded(2, c.options())
		checkConstruction(t, c, "NewSharded", c.shardedRefused(), err, func() error {
			if err := optionsRun(sh, sh.Mem()); err != nil {
				return err
			}
			return sh.CheckInvariants()
		})
	}
}
