package core

import (
	"repro/internal/chains"
	"repro/internal/model"
)

// ForEachPairBound streams every pair's PairBound in the row-major
// order of Disparity's Pairs slice, without materializing the list:
// one PairBound is reused across calls, so fn must not retain pb (or
// its windows) past the call — copy what it needs. Chains themselves
// are shared slices and stable. fn may stop the stream early by
// returning false; the returned summary then covers only the visited
// pairs.
//
// The summary mirrors DisparityBound's shape — Pairs holds just the
// worst pair seen (a private copy, safe to retain), ArgMax is 0, and
// Bound/NumPairs/Truncated match Disparity's. Every streamed value is
// bit-identical to the corresponding Disparity entry; the streaming
// mode exists so fleet-scale full-detail consumers (disparity-analyze
// -pairs above its materialization limit) run in O(1) pair memory
// instead of allocating NumPairs records.
func (a *Analysis) ForEachPairBound(task model.TaskID, m Method, maxChains int, fn func(rank int, pb *PairBound) bool) (*TaskDisparity, error) {
	ev := a.pairEvalFor(task, maxChains)
	n := ev.idx.NumChains()
	td := &TaskDisparity{
		Task: task, ArgMax: -1,
		NumPairs:  chains.NumPairs(n),
		Truncated: ev.idx.Truncated(),
		Cause:     ev.idx.Cause(),
	}
	if td.Truncated {
		disparityTruncated.Inc()
	}
	if n < 2 {
		return td, nil
	}
	cs := ev.store.chains(ev.idx)
	var s pairScratch
	var v pairVals
	var pb PairBound
	bestRank := -1
	var bestV pairVals
	rank := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m == PDiff {
				ev.evalPDiff(i, j, &v)
			} else if err := ev.evalSDiff(i, j, ev.join(i, j), &s, &v); err != nil {
				return nil, err
			}
			if v.bound > td.Bound || bestRank < 0 {
				td.Bound = v.bound
				bestRank = rank
				bestV = v
			}
			ev.fillPairBound(&pb, cs[i], cs[j], &v)
			if !fn(rank, &pb) {
				i = n // stop both loops
				break
			}
			rank++
		}
	}
	if bestRank >= 0 {
		bi, bj := pairAt(n, bestRank)
		td.ArgMax = 0
		td.Pairs = []*PairBound{ev.toPairBound(cs[bi], cs[bj], &bestV)}
	}
	return td, nil
}
