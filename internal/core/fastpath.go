// Trie-based fast path of the task-level disparity analysis.
//
// The legacy per-pair pipeline — materialize both chains, strip the
// common suffix, decompose, and re-derive every sub-chain's WCBT/BCBT
// from scratch (or through the string-keyed backward memo) — repeats
// work that the chain set shares: all chains to one task form a prefix
// trie (chains.Index), the stripped pair of two chains is the pair of
// leaf→LCA paths, and every sub-chain bound is a difference of two
// per-node prefix sums (backward.TrieBounds). pairEval packages those
// shared tables; evalPDiff/evalSDiff reproduce pairTheorem1 and
// pairTheorem2 on trie segments. All arithmetic is the same exact
// int64 sequence as the legacy path, so the bounds are bit-identical —
// DisparityReference keeps the legacy pipeline alive and the
// differential harness in internal/integration compares the two field
// by field.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/backward"
	"repro/internal/bitset"
	"repro/internal/chains"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/timeu"
)

var (
	disparityTruncated = metrics.C("core.disparity.truncated")
	// pairsPruned counts chain pairs the dominance prune skipped (their
	// cheap upper bound could not reach the running maximum), the
	// complement of core.pairs.bounded. Blocks accumulate locally and
	// bulk-add, so the hot loop stays free of shared atomics.
	pairsPruned = metrics.C("core.pairs.pruned")
	// boundParallelRuns counts DisparityBound evaluations that crossed
	// ParallelPairThreshold and ran the block-parallel reduction.
	boundParallelRuns = metrics.C("core.bound.parallel")
)

// ParallelPairThreshold is the number of chain pairs above which
// DisparityBound evaluates pairs on all CPUs. The reduction is
// deterministic (fixed partition, order-independent (bound, rank)
// merge), so the parallel result is bit-identical to the serial one;
// the threshold only trades goroutine overhead against pair volume.
//
// It is a plain package variable so tests can force the parallel path
// on small inputs, and it is read — without synchronization — each
// time an analysis evaluates a task. Set it once, before any analysis
// starts, and never concurrently with running analyses; tests that
// override it must restore the previous value via t.Cleanup so a
// failing test cannot leak the override into the rest of the package
// run. The same discipline applies to SubtreePrune and SubtreeRectCap
// (subtree.go).
var ParallelPairThreshold = 1 << 12

// evalKey identifies one pairEval per analyzed task and enumeration
// cap; PDiff and SDiff share the tables.
type evalKey struct {
	task model.TaskID
	max  int
}

// pairEval holds everything the per-pair bound evaluation reads: the
// chain trie, the per-node backward-bound prefix sums, the per-leaf
// full-chain bounds, and per-task attributes. It is immutable after
// build (the lazily built LCA and mask tables are sync.Once-guarded)
// and safe for concurrent use.
type pairEval struct {
	a   *Analysis
	idx *chains.Index
	tb  *backward.TrieBounds
	// store materializes every chain at most once, lazily and shared
	// across retargeted evaluations; stripped chains are prefix slices
	// of the stored ones (StripCommonSuffix keeps the head-side prefix
	// up to the last joint task). Only the full-detail Disparity loop
	// touches it — the bound-only loop materializes just the winning
	// pair, so fleet-scale bound runs never pay O(chains × length).
	store *chainStore
	// masks is the flat exact path-mask table with maskStride words per
	// trie node: one uint64 per node when the graph has at most 64
	// tasks (the historical layout), bitset.Words(numTasks) words
	// beyond. maskStride 0 means no masks (table over budget) and the
	// pair loop falls back to the decomposition walk.
	masks      []uint64
	maskStride int
	// Per-leaf bounds of the full chain (root segment) for Theorem 1.
	wFull, bFull []timeu.Time
	// headTask[i] is chain i's source task.
	headTask []model.TaskID
	// period and sporadic are indexed by TaskID.
	period   []timeu.Time
	sporadic []bool
	// lat is the lazily built reaction-prefix table of the latency
	// metrics (latency.go); it reads the backward analyzer, so retarget
	// never carries it across Analyses.
	latOnce sync.Once
	lat     *latSums
}

// pairEvalFor returns the (possibly cached) pairEval for a task and
// cap. The tables are cached on the Analysis, not the AnalysisCache:
// they embed the backward analyzer, which differs per Analysis even on
// a shared graph (e.g. the Dürr ablation).
func (a *Analysis) pairEvalFor(task model.TaskID, maxChains int) *pairEval {
	if maxChains <= 0 {
		maxChains = chains.DefaultMaxChains
	}
	key := evalKey{task, maxChains}
	a.evmu.Lock()
	if a.evals == nil {
		a.evals = make(map[evalKey]*pairEval)
	}
	ev, ok := a.evals[key]
	a.evmu.Unlock()
	if ok {
		return ev
	}
	ev = newPairEval(a, task, maxChains)
	a.evmu.Lock()
	if prev, ok := a.evals[key]; ok {
		ev = prev
	} else {
		a.evals[key] = ev
	}
	a.evmu.Unlock()
	return ev
}

// chainStore lazily materializes the trie's chain slice once, shared
// across the greedy optimizer's retargeted evaluations (the trie
// topology is identical, so the chains are too).
type chainStore struct {
	once sync.Once
	cs   []model.Chain
}

func (st *chainStore) chains(idx *chains.Index) []model.Chain {
	st.once.Do(func() { st.cs = idx.Chains() })
	return st.cs
}

func newPairEval(a *Analysis, task model.TaskID, maxChains int) *pairEval {
	// Index and backward prefix sums are built in one streaming pass;
	// the chains themselves stay unmaterialized until a full-detail
	// consumer asks.
	idx, tb := a.bw.IndexBounds(a.g, task, maxChains)
	ev := &pairEval{a: a, idx: idx, tb: tb, store: &chainStore{}}
	ev.masks, ev.maskStride = idx.PathMasks()
	nt := a.g.NumTasks()
	ev.period = make([]timeu.Time, nt)
	ev.sporadic = make([]bool, nt)
	for t := 0; t < nt; t++ {
		tsk := a.g.Task(model.TaskID(t))
		ev.period[t] = tsk.Period
		ev.sporadic[t] = tsk.Sporadic()
	}
	n := idx.NumChains()
	ev.wFull = make([]timeu.Time, n)
	ev.bFull = make([]timeu.Time, n)
	ev.headTask = make([]model.TaskID, n)
	for i := 0; i < n; i++ {
		leaf := idx.Leaf(i)
		ev.wFull[i], ev.bFull[i] = ev.tb.Bounds(leaf, 0)
		ev.headTask[i] = idx.NodeTask(leaf)
	}
	return ev
}

// retarget rebuilds the analysis-dependent tables (backward bounds,
// per-leaf windows, per-task attributes) for another Analysis of a
// topologically identical graph — the greedy optimizer's buffered
// clones — while sharing the topology-only tables (trie, chain store,
// masks, LCA lifting) that a capacity change cannot touch.
func (ev *pairEval) retarget(a *Analysis) *pairEval {
	next := &pairEval{
		a: a, idx: ev.idx, store: ev.store, masks: ev.masks,
		maskStride: ev.maskStride, headTask: ev.headTask,
	}
	next.tb = a.bw.TrieBounds(ev.idx)
	nt := a.g.NumTasks()
	next.period = make([]timeu.Time, nt)
	next.sporadic = make([]bool, nt)
	for t := 0; t < nt; t++ {
		tsk := a.g.Task(model.TaskID(t))
		next.period[t] = tsk.Period
		next.sporadic[t] = tsk.Sporadic()
	}
	n := ev.idx.NumChains()
	next.wFull = make([]timeu.Time, n)
	next.bFull = make([]timeu.Time, n)
	for i := 0; i < n; i++ {
		next.wFull[i], next.bFull[i] = next.tb.Bounds(ev.idx.Leaf(i), 0)
	}
	return next
}

// adoptEval seeds a's pairEval table with an already-built evaluation,
// used by the greedy optimizer to carry the trie topology across
// buffered clones.
func (a *Analysis) adoptEval(task model.TaskID, maxChains int, ev *pairEval) {
	if maxChains <= 0 {
		maxChains = chains.DefaultMaxChains
	}
	a.evmu.Lock()
	if a.evals == nil {
		a.evals = make(map[evalKey]*pairEval)
	}
	if _, ok := a.evals[evalKey{task, maxChains}]; !ok {
		a.evals[evalKey{task, maxChains}] = ev
	}
	a.evmu.Unlock()
}

// pairScratch is per-goroutine scratch for the Theorem-2 decomposition
// walk: an epoch-stamped task→λ-node table plus the common-task node
// lists. The zero value is ready to use.
type pairScratch struct {
	epoch   int64
	laEpoch []int64
	laNode  []int32
	laList  []int32 // λ-side trie node per common task, chain order
	nuList  []int32 // ν-side trie node per common task, chain order
}

func (s *pairScratch) ensure(numTasks int) {
	if len(s.laEpoch) < numTasks {
		s.laEpoch = make([]int64, numTasks)
		s.laNode = make([]int32, numTasks)
	}
}

// pairVals is the scalar result of one pair evaluation; toPairBound
// materializes the full PairBound from it on demand, so the pruned
// bound-only loop allocates nothing per pair.
type pairVals struct {
	bound    timeu.Time
	sameHead bool
	x1, y1   int64
	wl, wn   backward.Window
	// lambdaLen/nuLen are the stripped chain lengths (head-side prefix
	// of the materialized chains); 0 means the full chain (PDiff).
	lambdaLen, nuLen int
}

func (ev *pairEval) toPairBound(la, nu model.Chain, v *pairVals) *PairBound {
	pb := new(PairBound)
	ev.fillPairBound(pb, la, nu, v)
	return pb
}

// fillPairBound writes the materialized PairBound into pb — the
// allocation-free variant the streaming iterator reuses per pair.
func (ev *pairEval) fillPairBound(pb *PairBound, la, nu model.Chain, v *pairVals) {
	if v.lambdaLen > 0 {
		la, nu = la[:v.lambdaLen:v.lambdaLen], nu[:v.nuLen:v.nuLen]
	}
	*pb = PairBound{
		Lambda: la, Nu: nu,
		Bound: v.bound, SameHead: v.sameHead,
		X1: v.x1, Y1: v.y1,
		WindowLambda: v.wl, WindowNu: v.wn,
	}
}

// evalPDiff reproduces pairTheorem1 on the full chains i and j using
// the precomputed per-leaf bounds.
func (ev *pairEval) evalPDiff(i, j int, v *pairVals) {
	pairsBounded.Inc()
	wl, bl := ev.wFull[i], ev.bFull[i]
	wn, bn := ev.wFull[j], ev.bFull[j]
	o := timeu.Max(timeu.Abs(wl-bn), timeu.Abs(wn-bl))
	*v = pairVals{
		bound:    o,
		sameHead: ev.headTask[i] == ev.headTask[j],
		wl:       backward.Window{Lo: -wl, Hi: -bl},
		wn:       backward.Window{Lo: -wn, Hi: -bn},
	}
	if v.sameHead && !ev.sporadic[ev.headTask[i]] {
		v.bound = timeu.FloorTo(o, ev.period[ev.headTask[i]])
	}
}

// pdiffUB returns pairTheorem1's pre-flooring value — an upper bound
// on the final pair bound (flooring only rounds down) — in four array
// reads, for the dominance prune.
func (ev *pairEval) pdiffUB(i, j int) timeu.Time {
	return timeu.Max(timeu.Abs(ev.wFull[i]-ev.bFull[j]), timeu.Abs(ev.wFull[j]-ev.bFull[i]))
}

// join returns the trie node where chains i and j meet: the LCA of
// their leaves.
func (ev *pairEval) join(i, j int) int32 {
	return ev.idx.LCA(ev.idx.Leaf(i), ev.idx.Leaf(j))
}

// evalSDiff reproduces StripCommonSuffix + pairTheorem2 (including its
// Theorem-1 fallbacks) on the chain pair (i, j) via trie segments; f is
// the pair's join node (see join).
func (ev *pairEval) evalSDiff(i, j int, f int32, s *pairScratch, v *pairVals) error {
	idx := ev.idx
	u, w := idx.Leaf(i), idx.Leaf(j)
	laLen := int(idx.NodeDepth(u) - idx.NodeDepth(f) + 1)
	nuLen := int(idx.NodeDepth(w) - idx.NodeDepth(f) + 1)
	sameHead := ev.headTask[i] == ev.headTask[j]

	// Fast c = 1 test: with exact path masks, no shared task strictly
	// below the join point means the decomposition degenerates and both
	// pairTheorem2-with-c=1 and the sporadic Theorem-1 fallback reduce
	// to the same window combination (see sdiffC1).
	if c1, ok := ev.maskC1(u, w, f, ev.headTask[i], sameHead); ok && c1 {
		ev.sdiffC1(u, w, f, i, laLen, nuLen, sameHead, v)
		return nil
	}

	// Decomposition walk (replicates chains.Decompose on the stripped
	// pair): stamp the λ path's tasks with their trie nodes, then walk
	// the ν path head→tail collecting the shared ones in chain order.
	// The common tasks appear in the same relative order on both DAG
	// paths, so ν order is λ order.
	s.ensure(len(ev.period))
	s.epoch++
	for n := u; ; n = idx.NodeParent(n) {
		t := idx.NodeTask(n)
		s.laEpoch[t] = s.epoch
		s.laNode[t] = n
		if n == f {
			break
		}
	}
	s.laList, s.nuList = s.laList[:0], s.nuList[:0]
	first := true
	sporadicCommon := false
	for n := w; ; n = idx.NodeParent(n) {
		t := idx.NodeTask(n)
		// A shared head is excluded from the common set (it cannot
		// recur later on either path of a DAG).
		if !(first && sameHead) && s.laEpoch[t] == s.epoch {
			s.laList = append(s.laList, s.laNode[t])
			s.nuList = append(s.nuList, n)
			if ev.sporadic[t] {
				sporadicCommon = true
			}
		}
		first = false
		if n == f {
			break
		}
	}
	c := len(s.laList)
	if c == 1 || sporadicCommon || (sameHead && ev.sporadic[ev.headTask[i]]) {
		// c = 1, or Theorem 2's alignment argument is void (sporadic
		// common task / sporadic shared head): both cases evaluate to
		// the Theorem-1 combination of the stripped windows.
		ev.sdiffC1(u, w, f, i, laLen, nuLen, sameHead, v)
		return nil
	}
	pairsBounded.Inc()

	// Theorem 2's alignment recursion over the sub-chain segments,
	// tail to head; s.laList[k] / s.nuList[k] are the trie nodes of
	// common task o_{k+1} on the two paths.
	x, y := int64(0), int64(0)
	for k := c - 1; k >= 1; k-- {
		toJ := ev.period[idx.NodeTask(s.laList[k-1])]
		toJ1 := ev.period[idx.NodeTask(s.laList[k])]
		wa, ba := ev.tb.Bounds(s.laList[k-1], s.laList[k])
		wb, bb := ev.tb.Bounds(s.nuList[k-1], s.nuList[k])
		nx := timeu.CeilDiv(ba-wb+timeu.Time(x)*toJ1, toJ)
		ny := timeu.FloorDiv(wa-bb+timeu.Time(y)*toJ1, toJ)
		x, y = nx, ny
		if x > y {
			return fmt.Errorf("core: infeasible alignment x_%d=%d > y_%d=%d", k, x, k, y)
		}
	}
	to1 := ev.period[idx.NodeTask(s.laList[0])]
	wa, ba := ev.tb.Bounds(u, s.laList[0])
	wb, bb := ev.tb.Bounds(w, s.nuList[0])
	o := timeu.Max(
		timeu.Abs(wb-ba-timeu.Time(x)*to1),
		timeu.Abs(bb-wa-timeu.Time(y)*to1),
	)
	*v = pairVals{
		bound: o, sameHead: sameHead, x1: x, y1: y,
		wl:        backward.Window{Lo: -wa, Hi: -ba},
		wn:        backward.Window{Lo: timeu.Time(x)*to1 - wb, Hi: timeu.Time(y)*to1 - bb},
		lambdaLen: laLen, nuLen: nuLen,
	}
	if sameHead {
		v.bound = timeu.FloorTo(o, ev.period[ev.headTask[i]])
	}
	return nil
}

// sdiffC1 evaluates a pair whose stripped chains share only the join
// point (c = 1), or whose alignment argument is void. pairTheorem2
// with c = 1 and its Theorem-1 fallback produce identical values here:
// x₁ = y₁ = 0, the windows are the plain stripped-chain windows, and
// the bound floors exactly when the shared head is strictly periodic.
func (ev *pairEval) sdiffC1(u, w, f int32, i, laLen, nuLen int, sameHead bool, v *pairVals) {
	pairsBounded.Inc()
	wa, ba := ev.tb.Bounds(u, f)
	wb, bb := ev.tb.Bounds(w, f)
	o := timeu.Max(timeu.Abs(wa-bb), timeu.Abs(wb-ba))
	*v = pairVals{
		bound: o, sameHead: sameHead,
		wl:        backward.Window{Lo: -wa, Hi: -ba},
		wn:        backward.Window{Lo: -wb, Hi: -bb},
		lambdaLen: laLen, nuLen: nuLen,
	}
	if sameHead && !ev.sporadic[ev.headTask[i]] {
		v.bound = timeu.FloorTo(o, ev.period[ev.headTask[i]])
	}
}

// sdiffC1UB returns the pre-flooring c = 1 value for the dominance
// prune; only meaningful when the exact-mask test proved c = 1.
func (ev *pairEval) sdiffC1UB(u, w, f int32) timeu.Time {
	wa, ba := ev.tb.Bounds(u, f)
	wb, bb := ev.tb.Bounds(w, f)
	return timeu.Max(timeu.Abs(wa-bb), timeu.Abs(wb-ba))
}

// maskC1 applies the exact-mask c = 1 test to the stripped pair with
// leaves u, w and join node f: masks[u] & masks[w] &^ masks[f], with a
// shared head's bit cleared, is empty exactly when the pair shares no
// task strictly below the join point. ok is false when the index built
// no masks (table over MaskBudgetWords) — the test is then unavailable
// and callers run the decomposition walk. Allocation-free on both the
// single-word (≤ 64 tasks) and multi-word layouts.
func (ev *pairEval) maskC1(u, w, f int32, head model.TaskID, sameHead bool) (c1, ok bool) {
	switch s := ev.maskStride; s {
	case 0:
		return false, false
	case 1:
		common := ev.masks[u] & ev.masks[w] &^ ev.masks[f]
		if sameHead {
			common &^= 1 << uint(head)
		}
		return common == 0, true
	default:
		exclude := -1
		if sameHead {
			exclude = int(head)
		}
		return !bitset.AndNotAnyExcept(
			ev.masks[int(u)*s:(int(u)+1)*s],
			ev.masks[int(w)*s:(int(w)+1)*s],
			ev.masks[int(f)*s:(int(f)+1)*s],
			exclude), true
	}
}

// disparityFast is the full-detail task-level loop: every pair's
// PairBound is materialized (the public Disparity contract), but the
// per-pair work runs on the shared trie tables. The pair order, the
// ArgMax tie-break (first pair attaining the maximum), and every bound
// are identical to the legacy enumeration's.
func (a *Analysis) disparityFast(task model.TaskID, m Method, maxChains int) (*TaskDisparity, error) {
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
	td.Pairs = make([]*PairBound, 0, td.NumPairs)
	var s pairScratch
	var v pairVals
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m == PDiff {
				ev.evalPDiff(i, j, &v)
			} else if err := ev.evalSDiff(i, j, ev.join(i, j), &s, &v); err != nil {
				return nil, err
			}
			pb := ev.toPairBound(cs[i], cs[j], &v)
			td.Pairs = append(td.Pairs, pb)
			if pb.Bound > td.Bound || td.ArgMax < 0 {
				td.Bound = pb.Bound
				td.ArgMax = len(td.Pairs) - 1
			}
		}
	}
	return td, nil
}

// pairAt maps a row-major pair rank back to its (i, j) indices.
func pairAt(n, rank int) (int, int) {
	i := 0
	rowStart := 0
	for {
		rowLen := n - 1 - i
		if rank < rowStart+rowLen {
			return i, i + 1 + rank - rowStart
		}
		rowStart += rowLen
		i++
	}
}

// blockBest is one block's reduction result: the maximum bound over
// the block's pair ranks and the first rank attaining it.
type blockBest struct {
	bound timeu.Time
	rank  int
	err   error
}

// DisparityBound bounds the worst-case time disparity of the task like
// Disparity, but materializes only the argmax pair: Pairs is either
// empty (fewer than two chains) or the single worst PairBound, with
// ArgMax 0 and NumPairs the true pair count. The Bound and the worst
// pair are bit-identical to Disparity's Bound and Pairs[ArgMax] — the
// differential harness enforces it — while the loop skips the per-pair
// allocations, applies a sound dominance prune (a pair whose cheap
// upper bound is below the running maximum cannot change the result),
// skips whole subtree-pair blocks via the branch-and-bound descent of
// subtree.go (unless SubtreePrune is off), and evaluates surviving
// blocks in parallel above ParallelPairThreshold with a deterministic
// (bound, rank) reduction.
func (a *Analysis) DisparityBound(task model.TaskID, m Method, maxChains int) (*TaskDisparity, error) {
	if a.cache != nil {
		return a.cache.taskDisparity(task, m, maxChains, false, func() (*TaskDisparity, error) {
			return a.disparityBound(task, m, maxChains)
		})
	}
	return a.disparityBound(task, m, maxChains)
}

func (a *Analysis) disparityBound(task model.TaskID, m Method, maxChains int) (*TaskDisparity, error) {
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

	var best blockBest
	if SubtreePrune {
		best = ev.boundSubtree(m, n)
	} else if td.NumPairs >= ParallelPairThreshold {
		best = ev.boundParallel(m, n, td.NumPairs)
	} else {
		var threshold atomic.Int64
		best = ev.boundBlock(m, n, 0, td.NumPairs, &threshold)
	}
	if best.err != nil {
		return nil, best.err
	}
	// Re-evaluate the winning pair once to materialize its PairBound;
	// it was already counted by its block, so undo the double count.
	i, j := pairAt(n, best.rank)
	var s pairScratch
	var v pairVals
	if m == PDiff {
		ev.evalPDiff(i, j, &v)
	} else if err := ev.evalSDiff(i, j, ev.join(i, j), &s, &v); err != nil {
		return nil, err
	}
	pairsBounded.Add(-1)
	td.Bound = best.bound
	td.ArgMax = 0
	td.Pairs = []*PairBound{ev.toPairBound(ev.idx.Chain(i), ev.idx.Chain(j), &v)}
	return td, nil
}

// evalPair evaluates pair (i, j) into v with the per-pair dominance
// prune: evaluated is false when the pair's cheap upper bound could
// not reach the shared running maximum. threshold only grows, and a
// stale read merely prunes less, so the shared atomic is sound under
// concurrency; the result never depends on it (a pruned pair's bound
// is strictly below the final maximum, so it can attain neither the
// maximum nor the first-attaining rank). f is the pair's join node
// when the caller already knows it, or -1.
func (ev *pairEval) evalPair(m Method, i, j int, f int32, s *pairScratch, v *pairVals, threshold *atomic.Int64) (evaluated bool, err error) {
	if m == PDiff {
		if ev.pdiffUB(i, j) < timeu.Time(threshold.Load()) {
			return false, nil
		}
		ev.evalPDiff(i, j, v)
		return true, nil
	}
	if f < 0 {
		f = ev.join(i, j)
	}
	if ev.maskStride != 0 {
		u, w := ev.idx.Leaf(i), ev.idx.Leaf(j)
		c1, _ := ev.maskC1(u, w, f, ev.headTask[i], ev.headTask[i] == ev.headTask[j])
		if c1 && ev.sdiffC1UB(u, w, f) < timeu.Time(threshold.Load()) {
			return false, nil
		}
	}
	if err := ev.evalSDiff(i, j, f, s, v); err != nil {
		return false, err
	}
	return true, nil
}

// boundBlock evaluates the pair ranks [lo, hi) serially with the
// per-pair dominance prune of evalPair.
func (ev *pairEval) boundBlock(m Method, n, lo, hi int, threshold *atomic.Int64) blockBest {
	best := blockBest{rank: -1}
	i, j := pairAt(n, lo)
	var s pairScratch
	var v pairVals
	var prunedCount int64
	defer func() {
		if prunedCount > 0 {
			pairsPruned.Add(prunedCount)
		}
	}()
	for rank := lo; rank < hi; rank++ {
		evaluated, err := ev.evalPair(m, i, j, -1, &s, &v, threshold)
		if err != nil {
			best.err = err
			return best
		}
		if evaluated {
			if v.bound > best.bound || best.rank < 0 {
				best.bound, best.rank = v.bound, rank
			}
			for {
				cur := threshold.Load()
				if int64(v.bound) <= cur || threshold.CompareAndSwap(cur, int64(v.bound)) {
					break
				}
			}
		} else {
			prunedCount++
		}
		if j++; j == n {
			i++
			j = i + 1
		}
	}
	return best
}

// boundParallel partitions the rank space into contiguous blocks,
// evaluates them concurrently, and reduces the block results in block
// order — reproducing the serial first-attaining argmax exactly.
func (ev *pairEval) boundParallel(m Method, n, numPairs int) blockBest {
	boundParallelRuns.Inc()
	workers := runtime.GOMAXPROCS(0)
	numBlocks := workers * 4
	if numBlocks > numPairs {
		numBlocks = numPairs
	}
	results := make([]blockBest, numBlocks)
	var threshold atomic.Int64
	_ = par.Runner{Workers: workers}.RunIndexed(context.Background(), numBlocks,
		func(_ context.Context, _, b int) error {
			lo := numPairs * b / numBlocks
			hi := numPairs * (b + 1) / numBlocks
			results[b] = ev.boundBlock(m, n, lo, hi, &threshold)
			return nil
		})
	best := blockBest{rank: -1}
	for _, r := range results {
		if r.err != nil {
			best.err = r.err
			return best
		}
		if r.rank >= 0 && (r.bound > best.bound || best.rank < 0) {
			best.bound, best.rank = r.bound, r.rank
		}
	}
	return best
}
