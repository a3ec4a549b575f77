package heal

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Mitigations is the live countermeasure table: per-site overallocation
// pads for convicted overflow culprits and per-site free-quarantine
// flags for convicted dangling culprits. Readers sit on the service's
// hot paths (every malloc adds Pad to its size, every free asks
// Quarantined whether to call Quarantine instead of Free, in the
// supervisor and in serve's workers alike), so lookups are wait-free:
// both tables are immutable maps behind atomic pointers, republished
// copy-on-write by the supervisor's rare writes. Applying a
// countermeasure is therefore *live* by construction — the next
// allocation or free anywhere in the service observes it, with no
// restart, no barrier, and no locking on the read side.
type Mitigations struct {
	mu   sync.Mutex // serializes writers; readers never take it
	pads atomic.Pointer[map[int]int]
	quar atomic.Pointer[map[int]bool]
}

// NewMitigations returns an empty, immediately usable table.
func NewMitigations() *Mitigations {
	m := &Mitigations{}
	empty := map[int]int{}
	m.pads.Store(&empty)
	none := map[int]bool{}
	m.quar.Store(&none)
	return m
}

// Pad returns the extra bytes allocation site should over-allocate by
// (0 when the site is not convicted).
func (m *Mitigations) Pad(site int) int { return (*m.pads.Load())[site] }

// Quarantined reports whether frees from allocation site are diverted
// into delayed-reuse quarantine.
func (m *Mitigations) Quarantined(site int) bool { return (*m.quar.Load())[site] }

// SetPad installs (or raises — pads are max-merged, so an escape past an
// under-estimated pad can only grow it) the overallocation pad for a
// site. Returns true when the table changed.
func (m *Mitigations) SetPad(site, pad int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.pads.Load()
	if old[site] >= pad {
		return false
	}
	next := make(map[int]int, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[site] = pad
	m.pads.Store(&next)
	return true
}

// SetQuarantine marks a site's frees for quarantine. Returns true when
// the table changed.
func (m *Mitigations) SetQuarantine(site int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.quar.Load()
	if old[site] {
		return false
	}
	next := make(map[int]bool, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[site] = true
	m.quar.Store(&next)
	return true
}

// PadCount and QuarantineCount report how many countermeasures are in
// force — race-clean gauges (one atomic pointer load each).
func (m *Mitigations) PadCount() int        { return len(*m.pads.Load()) }
func (m *Mitigations) QuarantineCount() int { return len(*m.quar.Load()) }

// PadTable returns a copy of the pad table.
func (m *Mitigations) PadTable() map[int]int {
	old := *m.pads.Load()
	out := make(map[int]int, len(old))
	for k, v := range old {
		out[k] = v
	}
	return out
}

// QuarantineSites returns the quarantined sites in ascending order.
func (m *Mitigations) QuarantineSites() []int {
	old := *m.quar.Load()
	out := make([]int, 0, len(old))
	for s := range old {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
