package detect

// Exterminator-style triage: detection says *that* memory was damaged;
// triage says *which allocation site did it*. One randomized layout
// cannot: an escaped overflow damages whichever slot chance placed after
// the culprit, so per-layout evidence carries candidate sites that are
// partly coincidental. But the true culprit is a property of the
// program, not the layout — its allocation index recurs in the evidence
// of every independently seeded heap that detected the error, while
// coincidental neighbors are re-randomized away. Intersecting candidate
// sites across N layouts therefore isolates the culprit with
// exponentially growing confidence in N.

// TriageResult is the cross-layout adjudication for one error kind.
type TriageResult struct {
	// Kind is the error kind triaged.
	Kind Kind
	// Trials is the number of layout reports examined; Detected how many
	// carried at least one matching-kind evidence record with a culprit
	// candidate.
	Trials   int
	Detected int
	// Votes maps each candidate allocation site to the number of
	// detected layouts whose evidence names it.
	Votes map[int]int
	// Culprit is the localized allocation site: the candidate named by a
	// strict majority of detected layouts (ties broken to the smallest
	// site, so triage is deterministic). -1 when no candidate reaches a
	// majority.
	Culprit int
	// Confidence is Votes[Culprit]/Detected (0 when unresolved).
	Confidence float64
	// OverflowLen is the largest inferred error extent among the
	// evidence that named the culprit: for overflows, the reach past the
	// culprit object's requested end.
	OverflowLen int
}

// Triage intersects evidence of one kind across independently seeded
// layout reports and localizes the culprit allocation site. It is the
// Accumulator's verdict with each report one window and no absolute
// bar; Trials counts every report, detected or not.
func Triage(kind Kind, reports []*Report) *TriageResult {
	var acc Accumulator
	for _, r := range reports {
		acc.Observe(r.Evidence, 0)
	}
	res := acc.Verdict(kind, 0)
	res.Trials = len(reports)
	return res
}
