// Subtree-level pair pruning: a hierarchical branch-and-bound layer
// over the pair loop of DisparityBound.
//
// The trie groups chains by shared prefix, and backward.SubtreeAggs
// gives every trie node the min/max envelope of its leaves' segment
// keys. For two disjoint sibling subtrees hanging off a join node f,
// every cross pair diverges exactly at f, so the pairwise Theorem-1
// combination max(|𝒲λ−ℬν|, |𝒲ν−ℬλ|) is bounded above by combining the
// two envelopes — one interval comparison for the whole leaf-range ×
// leaf-range block. The descent below expands the pair space into
// O(NumPairs/SubtreeRectCap) such blocks, orders them by optimistic
// bound, and lets the CAS-lifted running maximum skip whole blocks
// before a single pair in them is enumerated. Surviving blocks fall
// through to the existing exact per-pair evaluation, so the result —
// bound, argmax pair, every intermediate — stays bit-identical to
// DisparityReference (pinned by the differential harnesses).
//
// Soundness of skipping a block: the block bound dominates each
// member pair's pre-flooring value (flooring only rounds down), the
// threshold is the maximum of already-evaluated final pair bounds and
// therefore never exceeds the final maximum, and the skip test is
// strict (<). A skipped pair's bound is thus strictly below the final
// maximum: it can attain neither the maximum nor the first-attaining
// rank. S-diff blocks are only ever skipped when the subtree union
// masks prove every member pair is a c = 1 pair (no shared task
// strictly below f) — for c ≥ 2 pairs Theorem 2's alignment recursion
// is not bounded by the envelope combination, so unproven blocks keep
// the +∞ sentinel and are always enumerated. The same union test rules
// out shared heads (a source task below f would survive the mask
// subtraction), so proven-c1 pairs never floor and evaluate on the
// direct c = 1 path.
package core

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/backward"
	"repro/internal/chains"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/timeu"
)

var (
	// pairsSubtreePruned counts chain pairs skipped wholesale by the
	// subtree descent — pairs inside a block whose optimistic bound
	// could not reach the running maximum. Disjoint from
	// core.pairs.pruned (the per-pair dominance prune inside surviving
	// blocks) and core.pairs.bounded (evaluated pairs); the three sum
	// to the pair count of every bound-only run.
	pairsSubtreePruned = metrics.C("core.pairs.subtree_pruned")
	// blocksPruned counts whole subtree-pair blocks skipped.
	blocksPruned = metrics.C("core.blocks.pruned")
)

// SubtreePrune toggles the subtree-level branch-and-bound of
// DisparityBound. Results are bit-identical either way; disabling it
// restores the flat all-pairs loop (the benchmark baseline). Like
// ParallelPairThreshold it is read when an analysis runs: set it
// before any analysis starts and do not flip it concurrently; tests
// that override it must restore the old value via t.Cleanup.
var SubtreePrune = true

// SubtreeRectCap caps the pair count of one block emitted by the
// subtree descent. Smaller blocks prune at a finer grain but cost more
// envelope evaluations; the default keeps block metadata negligible
// (tens of bytes per ~1k pairs) while fleet-scale tries still collapse
// to a few dozen blocks. Same write discipline as SubtreePrune.
var SubtreeRectCap = 1024

// ubSentinel marks a block whose optimistic bound is unavailable
// (triangles with mixed join nodes, S-diff blocks not proven all-c1):
// it is never skipped, only enumerated.
const ubSentinel = timeu.Time(math.MaxInt64)

// pairRect is one block of the pair space: the cross product
// [pLo, pHi) × [qLo, qHi) of chain indices diverging exactly at trie
// node f, or — when qLo < 0 — the triangle of all pairs inside
// [pLo, pHi) (join nodes vary; evaluated, never skipped).
type pairRect struct {
	pLo, pHi int32
	qLo, qHi int32
	f        int32
	ub       timeu.Time
	// c1 records that the union-mask test proved every pair of the
	// block shares nothing strictly below f: evaluation may take the
	// direct c = 1 path without per-pair LCA or mask work.
	c1 bool
}

// rectCollector expands the pair space into rects during the descent.
type rectCollector struct {
	ev        *pairEval
	m         Method
	cap       int64
	aggs      []backward.SubtreeAgg
	hasLET    bool
	sub       []uint64 // subtree union masks (nil: no c1 block proofs)
	subStride int
	rects     []pairRect
}

// collectRects runs the descent from the root and returns every block.
func (ev *pairEval) collectRects(m Method) []pairRect {
	c := &rectCollector{ev: ev, m: m, cap: int64(SubtreeRectCap)}
	if c.cap < 1 {
		c.cap = 1
	}
	c.aggs, c.hasLET = ev.tb.SubtreeAggs()
	if m == SDiff {
		c.sub, c.subStride = ev.idx.SubtreeMasks()
	}
	c.within(0)
	return c.rects
}

// nonEmpty filters a child list down to children whose subtrees hold
// leaves (truncated construction can leave empty ones; their sentinel
// envelopes must never be folded). The common full-index case returns
// the CSR slice unchanged.
func (c *rectCollector) nonEmpty(kids []int32) []int32 {
	for i, k := range kids {
		if lo, hi := c.ev.idx.LeafSpan(k); lo >= hi {
			out := make([]int32, i, len(kids))
			copy(out, kids[:i])
			for _, k := range kids[i+1:] {
				if lo, hi := c.ev.idx.LeafSpan(k); lo < hi {
					out = append(out, k)
				}
			}
			return out
		}
	}
	return kids
}

// within emits blocks covering every pair whose two chains both lie in
// x's subtree: a single triangle when the subtree is small enough,
// otherwise cross blocks between x's child subtrees (divergence node
// x) plus recursion into each child.
func (c *rectCollector) within(x int32) {
	idx := c.ev.idx
	for {
		lo, hi := idx.LeafSpan(x)
		span := int64(hi - lo)
		if span < 2 {
			return
		}
		if span*(span-1)/2 <= c.cap {
			c.rects = append(c.rects, pairRect{pLo: lo, pHi: hi, qLo: -1, qHi: -1, f: x, ub: ubSentinel})
			return
		}
		kids := c.nonEmpty(idx.Children(x))
		if len(kids) == 1 {
			x = kids[0] // chain down: no pairs diverge here
			continue
		}
		c.run(x, kids)
		for _, k := range kids {
			c.within(k)
		}
		return
	}
}

// run emits the cross blocks between distinct members of a sibling run
// by binary splitting — O(k log k) blocks for fanout k instead of the
// O(k²) of enumerating child pairs, which matters at fleet fanouts.
// Every pair crossing the halves diverges at f; pairs inside a half
// recurse.
func (c *rectCollector) run(f int32, kids []int32) {
	if len(kids) < 2 {
		return
	}
	mid := len(kids) / 2
	c.cross(f, kids[:mid], kids[mid:])
	c.run(f, kids[:mid])
	c.run(f, kids[mid:])
}

// expand replaces a single-node run by that node's children (chaining
// down single-child paths), preserving the leaf range and — because
// the replaced node is only one side of a cross — the divergence node.
func (c *rectCollector) expand(x int32) []int32 {
	for {
		kids := c.nonEmpty(c.ev.idx.Children(x))
		if len(kids) == 1 {
			x = kids[0]
			continue
		}
		return kids
	}
}

// cross emits blocks covering P-leaves × Q-leaves, all diverging at f.
// Both runs are contiguous in preorder with P before Q, so the leaf
// ranges are contiguous and every emitted pair (i, j) has i < j.
func (c *rectCollector) cross(f int32, P, Q []int32) {
	idx := c.ev.idx
	pLo, _ := idx.LeafSpan(P[0])
	_, pHi := idx.LeafSpan(P[len(P)-1])
	qLo, _ := idx.LeafSpan(Q[0])
	_, qHi := idx.LeafSpan(Q[len(Q)-1])
	pn, qn := int64(pHi-pLo), int64(qHi-qLo)
	if pn*qn <= c.cap {
		c.emitCross(f, pLo, pHi, qLo, qHi, P, Q)
		return
	}
	// Split the side with more leaves: halve multi-node runs, expand a
	// single node into its children. A side with ≥ 2 leaves always
	// splits, and the larger side of an over-cap block has ≥ 2.
	if pn >= qn {
		a, b := splitRun(c, P)
		c.cross(f, a, Q)
		c.cross(f, b, Q)
	} else {
		a, b := splitRun(c, Q)
		c.cross(f, P, a)
		c.cross(f, P, b)
	}
}

func splitRun(c *rectCollector, run []int32) (a, b []int32) {
	if len(run) >= 2 {
		mid := len(run) / 2
		return run[:mid], run[mid:]
	}
	kids := c.expand(run[0])
	mid := len(kids) / 2
	return kids[:mid], kids[mid:]
}

// emitCross computes the block's optimistic bound. P-diff pairs use
// full-chain windows, so the envelopes are completed at the root;
// S-diff blocks get a bound only when proven all-c1 (see the package
// comment), completed at the divergence node f.
func (c *rectCollector) emitCross(f int32, pLo, pHi, qLo, qHi int32, P, Q []int32) {
	r := pairRect{pLo: pLo, pHi: pHi, qLo: qLo, qHi: qHi, f: f, ub: ubSentinel}
	if c.m == PDiff {
		r.ub = c.blockUB(0, P, Q)
	} else if c.provenC1(f, P, Q) {
		r.c1 = true
		r.ub = c.blockUB(f, P, Q)
	}
	c.rects = append(c.rects, r)
}

// provenC1 applies the subtree union-mask test: no task bit shared by
// the two runs survives outside the join path f..root. It implies,
// pair by pair, the per-pair maskC1 test with sameHead = false — a
// shared source head below f would survive the subtraction (every
// task on f..root has predecessors, hence is no source).
func (c *rectCollector) provenC1(f int32, P, Q []int32) bool {
	s := c.subStride
	if s == 0 {
		return false
	}
	masks := c.ev.masks
	for w := 0; w < s; w++ {
		var orP uint64
		for _, p := range P {
			orP |= c.sub[int(p)*s+w]
		}
		if orP == 0 {
			continue
		}
		var orQ uint64
		for _, q := range Q {
			orQ |= c.sub[int(q)*s+w]
		}
		if orP&orQ&^masks[int(f)*s+w] != 0 {
			return false
		}
	}
	return true
}

// foldRun folds the envelopes of a run's nodes (all non-empty).
func (c *rectCollector) foldRun(run []int32) backward.SubtreeAgg {
	agg := c.aggs[run[0]]
	for _, x := range run[1:] {
		agg.Fold(&c.aggs[x])
	}
	return agg
}

// blockUB combines the two runs' envelopes at join node f into an
// upper bound on every cross pair's pre-flooring Theorem-1 value
// max(|𝒲λ−ℬν|, |𝒲ν−ℬλ|): each |x−y| with x ∈ [xl,xh], y ∈ [yl,yh] is
// at most max(xh−yl, yh−xl).
func (c *rectCollector) blockUB(f int32, P, Q []int32) timeu.Time {
	wOff, bOff, bletOff := c.ev.tb.BlockOffsets(f)
	ap, aq := c.foldRun(P), c.foldRun(Q)
	minWP, maxWP := ap.MinW+wOff, ap.MaxW+wOff
	minWQ, maxWQ := aq.MinW+wOff, aq.MaxW+wOff
	minBP, maxBP := hullB(&ap, bOff, bletOff, c.hasLET)
	minBQ, maxBQ := hullB(&aq, bOff, bletOff, c.hasLET)
	ub := timeu.Max(maxWP-minBQ, maxBQ-minWP)
	ub = timeu.Max(ub, timeu.Max(maxWQ-minBP, maxBP-minWQ))
	if ub < 0 {
		ub = 0
	}
	return ub
}

// hullB brackets a run's ℬ values. Which segBCBT branch applies is per
// leaf (the LET branch needs a scheduled task on leaf..f), so when the
// graph holds LET tasks at all the hull of both candidate intervals is
// taken — each leaf's true ℬ is one of the two candidates, so the hull
// contains it.
func hullB(a *backward.SubtreeAgg, bOff, bletOff timeu.Time, hasLET bool) (lo, hi timeu.Time) {
	lo, hi = a.MinB+bOff, a.MaxB+bOff
	if hasLET {
		lo = timeu.Min(lo, a.MinBLET+bletOff)
		hi = timeu.Max(hi, a.MaxBLET+bletOff)
	}
	return lo, hi
}

// pairRank maps pair (i, j), i < j, to its row-major rank — the order
// the flat loops of disparityFast/boundBlock visit pairs in. The
// cross-rect reduction merges by (bound desc, rank asc), reproducing
// the serial first-attaining argmax no matter how blocks interleave.
func pairRank(n, i, j int) int {
	return i*(n-1) - i*(i-1)/2 + j - i - 1
}

// boundSubtree is DisparityBound's branch-and-bound driver: collect
// blocks, order them most-promising first (so the threshold rises
// early and later blocks die on one comparison), evaluate the first
// block serially to seed the threshold, then the rest serially or —
// above ParallelPairThreshold — on all CPUs. The (bound, rank)
// reduction keeps the result independent of evaluation order.
func (ev *pairEval) boundSubtree(m Method, n int) blockBest {
	rects := ev.collectRects(m)
	sort.SliceStable(rects, func(i, j int) bool { return rects[i].ub > rects[j].ub })
	var threshold atomic.Int64
	results := make([]blockBest, len(rects))
	results[0] = ev.evalRect(m, n, &rects[0], &threshold)
	if rest := len(rects) - 1; rest > 0 && chains.NumPairs(n) >= ParallelPairThreshold {
		boundParallelRuns.Inc()
		_ = par.Runner{Workers: runtime.GOMAXPROCS(0)}.RunIndexed(context.Background(), rest,
			func(_ context.Context, _, b int) error {
				results[b+1] = ev.evalRect(m, n, &rects[b+1], &threshold)
				return nil
			})
	} else {
		for b := 1; b < len(rects); b++ {
			results[b] = ev.evalRect(m, n, &rects[b], &threshold)
		}
	}
	best := blockBest{rank: -1}
	for _, r := range results {
		if r.err != nil {
			return blockBest{rank: -1, err: r.err}
		}
		if r.rank < 0 {
			continue
		}
		if best.rank < 0 || r.bound > best.bound ||
			(r.bound == best.bound && r.rank < best.rank) {
			best.bound, best.rank = r.bound, r.rank
		}
	}
	return best
}

// evalRect evaluates one block: skip it outright when its optimistic
// bound cannot reach the threshold, otherwise enumerate its pairs with
// the per-pair dominance prune (proven-c1 blocks on the direct c = 1
// path, everything else through the generic evaluation).
func (ev *pairEval) evalRect(m Method, n int, r *pairRect, threshold *atomic.Int64) blockBest {
	best := blockBest{rank: -1}
	if r.ub != ubSentinel && r.ub < timeu.Time(threshold.Load()) {
		pairsSubtreePruned.Add(int64(r.pHi-r.pLo) * int64(r.qHi-r.qLo))
		blocksPruned.Inc()
		return best
	}
	var s pairScratch
	var v pairVals
	var prunedCount int64
	defer func() {
		if prunedCount > 0 {
			pairsPruned.Add(prunedCount)
		}
	}()
	take := func(rank int) {
		if v.bound > best.bound || best.rank < 0 ||
			(v.bound == best.bound && rank < best.rank) {
			best.bound, best.rank = v.bound, rank
		}
		for {
			cur := threshold.Load()
			if int64(v.bound) <= cur || threshold.CompareAndSwap(cur, int64(v.bound)) {
				break
			}
		}
	}
	if r.qLo < 0 { // triangle
		for i := int(r.pLo); i < int(r.pHi); i++ {
			for j := i + 1; j < int(r.pHi); j++ {
				ok, err := ev.evalPair(m, i, j, -1, &s, &v, threshold)
				if err != nil {
					best.err = err
					return best
				}
				if !ok {
					prunedCount++
					continue
				}
				take(pairRank(n, i, j))
			}
		}
		return best
	}
	if r.c1 {
		idx := ev.idx
		fDepth := idx.NodeDepth(r.f)
		for i := int(r.pLo); i < int(r.pHi); i++ {
			u := idx.Leaf(i)
			laLen := int(idx.NodeDepth(u) - fDepth + 1)
			for j := int(r.qLo); j < int(r.qHi); j++ {
				w := idx.Leaf(j)
				if ev.sdiffC1UB(u, w, r.f) < timeu.Time(threshold.Load()) {
					prunedCount++
					continue
				}
				ev.sdiffC1(u, w, r.f, i, laLen, int(idx.NodeDepth(w)-fDepth+1), false, &v)
				take(pairRank(n, i, j))
			}
		}
		return best
	}
	for i := int(r.pLo); i < int(r.pHi); i++ {
		for j := int(r.qLo); j < int(r.qHi); j++ {
			ok, err := ev.evalPair(m, i, j, r.f, &s, &v, threshold)
			if err != nil {
				best.err = err
				return best
			}
			if !ok {
				prunedCount++
				continue
			}
			take(pairRank(n, i, j))
		}
	}
	return best
}
