// Package policies implements the comparator runtimes of Table 1 that
// are not plain allocators: the fail-stop safe-C runtime (CCured-like),
// failure-oblivious computing, and Rx-style rollback recovery.
//
// Each runtime is reproduced at the level of its observable policy, per
// DESIGN.md §1: what happens on each class of memory error. The checked
// runtimes interpose on application memory accesses through the
// heap.Memory interface; Rx interposes on execution (re-running a
// deterministic program with an allergen-avoiding allocator after a
// crash).
package policies

import (
	"fmt"

	"diehard/internal/gcsim"
	"diehard/internal/heap"
	"diehard/internal/vmem"
)

// FailStop models a safe-C runtime in the CCured mold: every access is
// dynamically checked against live-object bounds, reads of uninitialized
// heap bytes are detected, and any violation aborts the program
// (heap.AbortError). Deallocation is handled by a conservative collector
// exactly as CCured relies on BDW-GC, which is why invalid, double, and
// dangling frees are tolerated (Table 1).
type FailStop struct {
	base    *gcsim.Heap
	objects *objTable
	inited  map[heap.Ptr][]bool // per-object byte-initialization map
	stats   heap.Stats
}

var _ heap.Allocator = (*FailStop)(nil)

// NewFailStop creates a fail-stop runtime with the given heap budget.
func NewFailStop(heapSize int) (*FailStop, error) {
	base, err := gcsim.New(gcsim.Options{HeapSize: heapSize})
	if err != nil {
		return nil, err
	}
	// The bounds table holds every object the program can still name;
	// the collector must not sweep behind it. (CCured's pointers are
	// visible to its collector; the simulated collector cannot see this
	// runtime's table, so pinning is the faithful choice.)
	base.SetDisableSweep(true)
	return &FailStop{
		base:    base,
		objects: newObjTable(),
		inited:  make(map[heap.Ptr][]bool),
	}, nil
}

// Malloc allocates and registers bounds and initialization metadata.
func (f *FailStop) Malloc(size int) (heap.Ptr, error) {
	f.stats.WorkUnits += heap.WorkCheck
	p, err := f.base.Malloc(size)
	if err != nil {
		f.stats.FailedMallocs++
		return heap.Null, err
	}
	if size == 0 {
		size = 1
	}
	f.objects.add(p, size)
	f.inited[p] = make([]bool, size)
	heap.CountMallocs(&f.stats, 1, uint64(size), uint64(size))
	return p, nil
}

// Free is checked but garbage-collected: like CCured on BDW-GC, the
// object is not reused until unreachable, so double and invalid frees
// are harmless and dangling accesses still see the object.
func (f *FailStop) Free(p heap.Ptr) error {
	f.stats.WorkUnits += heap.WorkCheck
	f.stats.IgnoredFrees++
	return f.base.Free(p)
}

// SizeOf reports the registered size of a live object.
func (f *FailStop) SizeOf(p heap.Ptr) (int, bool) {
	start, size, ok := f.objects.find(p)
	if !ok || start != p {
		return 0, false
	}
	return size, true
}

// Mem returns the underlying simulated address space (unchecked); use
// Memory for application accesses.
func (f *FailStop) Mem() *vmem.Space { return f.base.Mem() }

// Stats returns the runtime's counters.
func (f *FailStop) Stats() *heap.Stats { return &f.stats }

// Name identifies the runtime in experiment reports.
func (f *FailStop) Name() string { return "ccured" }

// Collector exposes the underlying collector for root registration.
func (f *FailStop) Collector() *gcsim.Heap { return f.base }

// Memory returns the dynamically checked view of memory that application
// code must use under this runtime.
func (f *FailStop) Memory() heap.Memory {
	return &checkedMem{rt: f}
}

// checkedMem enforces spatial (bounds) and read-before-write checks on
// every access, aborting on violation.
type checkedMem struct {
	rt *FailStop
}

var _ heap.Memory = (*checkedMem)(nil)

func (m *checkedMem) check(addr heap.Ptr, n int, isWrite bool) error {
	m.rt.stats.WorkUnits += heap.WorkCheck
	start, size, ok := m.rt.objects.find(addr)
	if !ok || addr+uint64(n) > start+uint64(size) {
		op := "read"
		if isWrite {
			op = "write"
		}
		return &heap.AbortError{Reason: fmt.Sprintf("bounds check failed: %s of %d bytes at %#x", op, n, addr)}
	}
	init := m.rt.inited[start]
	off := int(addr - start)
	if isWrite {
		for i := 0; i < n; i++ {
			init[off+i] = true
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if !init[off+i] {
			return &heap.AbortError{Reason: fmt.Sprintf("read of uninitialized byte at %#x", addr+uint64(i))}
		}
	}
	return nil
}

func (m *checkedMem) Load8(addr uint64) (byte, error) {
	if err := m.check(addr, 1, false); err != nil {
		return 0, err
	}
	return m.rt.base.Mem().Load8(addr)
}

func (m *checkedMem) Store8(addr uint64, v byte) error {
	if err := m.check(addr, 1, true); err != nil {
		return err
	}
	return m.rt.base.Mem().Store8(addr, v)
}

func (m *checkedMem) Load32(addr uint64) (uint32, error) {
	if err := m.check(addr, 4, false); err != nil {
		return 0, err
	}
	return m.rt.base.Mem().Load32(addr)
}

func (m *checkedMem) Store32(addr uint64, v uint32) error {
	if err := m.check(addr, 4, true); err != nil {
		return err
	}
	return m.rt.base.Mem().Store32(addr, v)
}

func (m *checkedMem) Load64(addr uint64) (uint64, error) {
	if err := m.check(addr, 8, false); err != nil {
		return 0, err
	}
	return m.rt.base.Mem().Load64(addr)
}

func (m *checkedMem) Store64(addr uint64, v uint64) error {
	if err := m.check(addr, 8, true); err != nil {
		return err
	}
	return m.rt.base.Mem().Store64(addr, v)
}

func (m *checkedMem) ReadBytes(addr uint64, b []byte) error {
	if err := m.check(addr, len(b), false); err != nil {
		return err
	}
	return m.rt.base.Mem().ReadBytes(addr, b)
}

func (m *checkedMem) WriteBytes(addr uint64, b []byte) error {
	if err := m.check(addr, len(b), true); err != nil {
		return err
	}
	return m.rt.base.Mem().WriteBytes(addr, b)
}

func (m *checkedMem) Memset(addr uint64, v byte, n int) error {
	if err := m.check(addr, n, true); err != nil {
		return err
	}
	return m.rt.base.Mem().Memset(addr, v, n)
}

// FindByte scans byte by byte: each examined byte must pass the same
// bounds and initialization checks a Load8 loop would perform, so the
// fail-stop runtime gets no unchecked fast path.
func (m *checkedMem) FindByte(addr uint64, c byte, limit int) (int, bool, error) {
	for i := 0; i < limit; i++ {
		b, err := m.Load8(addr + uint64(i))
		if err != nil {
			return i, false, err
		}
		if b == c {
			return i, true, nil
		}
	}
	return limit, false, nil
}

func (m *checkedMem) MemMove(dst, src uint64, n int) error {
	if err := m.check(src, n, false); err != nil {
		return err
	}
	if err := m.check(dst, n, true); err != nil {
		return err
	}
	return m.rt.base.Mem().MemMove(dst, src, n)
}
