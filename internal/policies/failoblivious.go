package policies

import (
	"diehard/internal/heap"
	"diehard/internal/leaalloc"
	"diehard/internal/vmem"
)

// FailOblivious models failure-oblivious computing (Rinard et al.): a
// bounds-checking compiler that, instead of aborting on a violation,
// silently drops illegal writes and manufactures values for illegal
// reads so the program keeps running. Execution never stops on a memory
// error, but nothing guarantees the computation is still meaningful —
// the "undefined" entries in its Table 1 column.
//
// Deallocation goes to the standard allocator unchecked; after a free
// the object leaves the bounds table, so dangling accesses become
// "illegal" and are dropped/manufactured rather than served.
type FailOblivious struct {
	base    *leaalloc.Heap
	objects *objTable
	stats   heap.Stats

	// DroppedWrites and ManufacturedReads count the failure-oblivious
	// interventions, observable for experiments.
	DroppedWrites     uint64
	ManufacturedReads uint64

	// manufactureCounter cycles small integers for manufactured reads,
	// following the paper's strategy of returning a varied sequence so
	// loops that compare against a single value terminate.
	manufactureCounter uint64
}

var _ heap.Allocator = (*FailOblivious)(nil)

// NewFailOblivious creates a failure-oblivious runtime over a standard
// Lea-style heap.
func NewFailOblivious(heapSize int) (*FailOblivious, error) {
	base, err := leaalloc.New(leaalloc.Options{HeapSize: heapSize})
	if err != nil {
		return nil, err
	}
	return &FailOblivious{base: base, objects: newObjTable()}, nil
}

// Malloc allocates from the standard heap and registers bounds.
func (f *FailOblivious) Malloc(size int) (heap.Ptr, error) {
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
	heap.CountMallocs(&f.stats, 1, uint64(size), uint64(size))
	return p, nil
}

// Free removes the bounds entry and forwards to the standard allocator;
// invalid and double frees are exactly as undefined as they are under
// GNU libc.
func (f *FailOblivious) Free(p heap.Ptr) error {
	f.stats.WorkUnits += heap.WorkCheck
	if f.objects.remove(p) {
		heap.CountFrees(&f.stats, 1, 1)
	}
	return f.base.Free(p)
}

// SizeOf reports the registered size of a live object.
func (f *FailOblivious) SizeOf(p heap.Ptr) (int, bool) {
	start, size, ok := f.objects.find(p)
	if !ok || start != p {
		return 0, false
	}
	return size, true
}

// Mem returns the underlying simulated address space (unchecked); use
// Memory for application accesses.
func (f *FailOblivious) Mem() *vmem.Space { return f.base.Mem() }

// Stats returns the runtime's counters.
func (f *FailOblivious) Stats() *heap.Stats { return &f.stats }

// Name identifies the runtime in experiment reports.
func (f *FailOblivious) Name() string { return "failure-oblivious" }

// Memory returns the failure-oblivious view of memory.
func (f *FailOblivious) Memory() heap.Memory { return &obliviousMem{rt: f} }

// obliviousMem drops out-of-bounds writes and manufactures values for
// out-of-bounds reads.
type obliviousMem struct {
	rt *FailOblivious
}

var _ heap.Memory = (*obliviousMem)(nil)

func (m *obliviousMem) inBounds(addr heap.Ptr, n int) bool {
	m.rt.stats.WorkUnits += heap.WorkCheck
	return m.rt.objects.contains(addr, n)
}

func (m *obliviousMem) manufacture() uint64 {
	m.rt.ManufacturedReads++
	// Cycle 0,1,2,...,7: varied enough to break value-comparison loops.
	v := m.rt.manufactureCounter & 7
	m.rt.manufactureCounter++
	return v
}

func (m *obliviousMem) Load8(addr uint64) (byte, error) {
	if !m.inBounds(addr, 1) {
		return byte(m.manufacture()), nil
	}
	return m.rt.base.Mem().Load8(addr)
}

func (m *obliviousMem) Store8(addr uint64, v byte) error {
	if !m.inBounds(addr, 1) {
		m.rt.DroppedWrites++
		return nil
	}
	return m.rt.base.Mem().Store8(addr, v)
}

func (m *obliviousMem) Load32(addr uint64) (uint32, error) {
	if !m.inBounds(addr, 4) {
		return uint32(m.manufacture()), nil
	}
	return m.rt.base.Mem().Load32(addr)
}

func (m *obliviousMem) Store32(addr uint64, v uint32) error {
	if !m.inBounds(addr, 4) {
		m.rt.DroppedWrites++
		return nil
	}
	return m.rt.base.Mem().Store32(addr, v)
}

func (m *obliviousMem) Load64(addr uint64) (uint64, error) {
	if !m.inBounds(addr, 8) {
		return m.manufacture(), nil
	}
	return m.rt.base.Mem().Load64(addr)
}

func (m *obliviousMem) Store64(addr uint64, v uint64) error {
	if !m.inBounds(addr, 8) {
		m.rt.DroppedWrites++
		return nil
	}
	return m.rt.base.Mem().Store64(addr, v)
}

func (m *obliviousMem) ReadBytes(addr uint64, b []byte) error {
	if !m.inBounds(addr, len(b)) {
		for i := range b {
			b[i] = byte(m.manufacture())
		}
		return nil
	}
	return m.rt.base.Mem().ReadBytes(addr, b)
}

func (m *obliviousMem) WriteBytes(addr uint64, b []byte) error {
	if !m.inBounds(addr, len(b)) {
		m.rt.DroppedWrites++
		return nil
	}
	return m.rt.base.Mem().WriteBytes(addr, b)
}

func (m *obliviousMem) Memset(addr uint64, v byte, n int) error {
	if !m.inBounds(addr, n) {
		m.rt.DroppedWrites++
		return nil
	}
	return m.rt.base.Mem().Memset(addr, v, n)
}

// FindByte scans byte by byte so out-of-bounds portions of the scan
// manufacture values exactly as a Load8 loop would.
func (m *obliviousMem) FindByte(addr uint64, c byte, limit int) (int, bool, error) {
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

func (m *obliviousMem) MemMove(dst, src uint64, n int) error {
	buf := make([]byte, n)
	if err := m.ReadBytes(src, buf); err != nil {
		return err
	}
	return m.WriteBytes(dst, buf)
}
