package detect

import (
	"sort"
	"sync"
)

// Accumulator is the one implementation of the cross-layout vote:
// Triage adjudicates a fixed slice of per-layout reports by observing
// each as one window, while a long-running service feeds an
// Accumulator evidence *windows* as it produces them — one window per
// heap-check barrier interval, restart cycle, or campaign replica — and
// asks "which allocation site is the culprit, and with what
// confidence?" at any moment. Within one window a site counts once per
// kind no matter how many records name it (a window is one randomized
// layout's testimony, not one vote per damaged byte), a window counts as
// detected for a kind when any record of that kind carries a candidate,
// and Verdict applies the strict-majority rule with a smallest-site
// tie-break — so a culprit that merely recurs because the layout never
// changed cannot outvote the cross-layout consensus.
//
// The supervisor (internal/heal) holds one Accumulator across restart
// cycles and countermeasure applications; campaign replicas each fill a
// private Accumulator and Merge them, which is order-independent (sums
// and maxes), so replicated verdicts are byte-identical at any worker
// count.
type Accumulator struct {
	mu    sync.Mutex
	kinds map[Kind]*kindAcc
}

// kindAcc is one error kind's running tally.
type kindAcc struct {
	windows int         // windows that carried a candidate of this kind
	votes   map[int]int // site -> windows naming it
	maxLen  map[int]int // site -> max inferred extent
}

// Observe ingests one evidence window (sites mod > 0 fold allocation
// indices onto a cyclic site space — the identity that survives restart
// cycles when every cycle replays the same allocation program). Records
// without a candidate site are skipped; empty windows (no candidates of
// a kind) leave that kind's detected count untouched.
func (a *Accumulator) Observe(evs []Evidence, mod int) {
	type agg struct {
		seen   map[int]bool
		maxLen map[int]int
	}
	local := map[Kind]*agg{}
	for _, ev := range evs {
		if ev.AllocSite < 0 {
			continue
		}
		site := ev.AllocSite
		if mod > 0 {
			site %= mod
		}
		k := local[ev.Kind]
		if k == nil {
			k = &agg{seen: map[int]bool{}, maxLen: map[int]int{}}
			local[ev.Kind] = k
		}
		k.seen[site] = true
		if ev.Length > k.maxLen[site] {
			k.maxLen[site] = ev.Length
		}
	}
	if len(local) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for kind, k := range local {
		ka := a.kind(kind)
		ka.windows++
		for site := range k.seen {
			ka.votes[site]++
			if k.maxLen[site] > ka.maxLen[site] {
				ka.maxLen[site] = k.maxLen[site]
			}
		}
	}
}

// kind returns (creating if needed) the tally for one kind. Caller holds
// the mutex.
func (a *Accumulator) kind(kind Kind) *kindAcc {
	if a.kinds == nil {
		a.kinds = map[Kind]*kindAcc{}
	}
	ka := a.kinds[kind]
	if ka == nil {
		ka = &kindAcc{votes: map[int]int{}, maxLen: map[int]int{}}
		a.kinds[kind] = ka
	}
	return ka
}

// Merge folds another accumulator's tallies into this one. Sums and
// maxes commute, so merging replicas in any order yields the same state.
func (a *Accumulator) Merge(b *Accumulator) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	for kind, kb := range b.kinds {
		ka := a.kind(kind)
		ka.windows += kb.windows
		for site, v := range kb.votes {
			ka.votes[site] += v
		}
		for site, l := range kb.maxLen {
			if l > ka.maxLen[site] {
				ka.maxLen[site] = l
			}
		}
	}
}

// Verdict adjudicates one kind: the culprit is the site named by a
// strict majority of detected windows AND by at least bar windows in
// absolute terms (the supervisor's confidence bar — majority alone
// would convict on a single window; Triage passes 0). Ties break to the
// smallest site. Trials/Detected are both the detected-window count (an
// accumulator never sees evidence-free windows; Triage sets Trials to
// its report count), Votes is a copy, and OverflowLen is the largest
// extent among the winner's evidence — the pad size an overflow
// countermeasure needs.
func (a *Accumulator) Verdict(kind Kind, bar int) *TriageResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	res := &TriageResult{Kind: kind, Votes: map[int]int{}, Culprit: -1}
	ka := a.kinds[kind]
	if ka == nil || ka.windows == 0 {
		return res
	}
	res.Trials = ka.windows
	res.Detected = ka.windows
	cands := make([]int, 0, len(ka.votes))
	for site, v := range ka.votes {
		res.Votes[site] = v
		cands = append(cands, site)
	}
	sort.Ints(cands)
	best, bestVotes := -1, 0
	for _, s := range cands {
		if ka.votes[s] > bestVotes {
			best, bestVotes = s, ka.votes[s]
		}
	}
	if bestVotes >= bar && 2*bestVotes > res.Detected {
		res.Culprit = best
		res.Confidence = float64(bestVotes) / float64(res.Detected)
		res.OverflowLen = ka.maxLen[best]
	}
	return res
}

// Windows reports how many detected windows a kind has accumulated.
func (a *Accumulator) Windows(kind Kind) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ka := a.kinds[kind]; ka != nil {
		return ka.windows
	}
	return 0
}
