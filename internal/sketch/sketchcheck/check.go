// Package sketchcheck is the property / invariant harness for the
// sketch algebra of paper §3. Everything Foresight serves rests on the
// claim that its sketches are mergeable, composable summaries with
// guaranteed error bounds — and the codebase exercises that algebra
// along independent paths (one-pass build on any worker count, Extend
// delta-merge, gob persist/reload). This package
// states the algebraic laws once, as reusable Check* functions, and
// lets fuzzers, table tests and the `foresight selfcheck` CLI all
// drive the same assertions:
//
//   - merge ≡ one-pass: a KMV merge is *exactly* the one-pass sketch
//     of the concatenated stream (hashing is a pure function of the
//     item), so its differential check demands equality;
//   - merge within bounds: KLL and SpaceSaving merges are randomized
//     or conservative, so their checks assert each sketch's exported
//     error contract against ground truth (KLL rank error ≤
//     RankErrorBound()·n, SpaceSaving true ≤ est ≤ true+err and the
//     untracked-item floor bound);
//   - persist→load is query-identical, and Extend leaves its receiver
//     saving to the same bytes;
//   - a build saves to the same bytes on any worker count, and the
//     Extend path agrees with the one-pass build within the
//     score-delta gate.
//
// Violations accumulate in a Report instead of panicking, so one run
// surfaces every broken invariant at once.
package sketchcheck

import (
	"fmt"
	"math"
	"sort"

	"foresight/internal/sketch"
)

// Violation is one failed invariant.
type Violation struct {
	// Invariant is a stable slash-separated identifier, e.g.
	// "kll/rank-error" — fuzz failures and selfcheck output both key
	// on it.
	Invariant string
	// Detail is the human-readable evidence.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Report accumulates invariant outcomes across any number of Check*
// calls.
type Report struct {
	// Checked counts individual assertions evaluated.
	Checked int
	// Violations holds every failed assertion.
	Violations []Violation
}

// check records one assertion; the detail is only formatted on
// failure.
func (r *Report) check(ok bool, invariant, format string, args ...any) bool {
	r.Checked++
	if !ok {
		r.Violations = append(r.Violations, Violation{
			Invariant: invariant,
			Detail:    fmt.Sprintf(format, args...),
		})
	}
	return ok
}

// Fail records an unconditional violation (used for errors from Save,
// Load, Extend and friends that the invariant suite expected to
// succeed).
func (r *Report) Fail(invariant, format string, args ...any) {
	r.check(false, invariant, format, args...)
}

// Ok reports whether every assertion held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// sameFloat is equality that treats NaN as equal to NaN — the right
// notion for "answers queries identically".
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// quantileGrid is the probe grid for rank/quantile checks.
var quantileGrid = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// CheckKLL asserts the KLL quantile sketch's exported contract
// against the exact stream it was built from (NaNs in exact are
// ignored, matching Update):
//
//   - Count() equals the number of non-NaN observations;
//   - for every probe value x, |Rank(x) − trueRank(x)| ≤
//     RankErrorBound()·n (probes cover the distinct stream values,
//     capped at maxProbes evenly spaced, plus ±Inf — so the total
//     retained weight is also checked);
//   - Quantile(q) over the grid is a value inside [min, max] whose
//     true rank interval lies within 3·ε·n+1 of q·n (the extra factor
//     covers the weight granularity of a retained item and the drift
//     between retained weight and n);
//   - quantiles are monotonically non-decreasing in q;
//   - an empty sketch answers NaN.
func CheckKLL(r *Report, label string, s *sketch.KLL, exact []float64) {
	clean := make([]float64, 0, len(exact))
	for _, v := range exact {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	sort.Float64s(clean)
	n := len(clean)
	r.check(s.Count() == uint64(n), "kll/count",
		"%s: Count() = %d, stream has %d non-NaN values", label, s.Count(), n)
	if n == 0 {
		r.check(math.IsNaN(s.Quantile(0.5)), "kll/empty-quantile",
			"%s: empty sketch Quantile(0.5) = %v, want NaN", label, s.Quantile(0.5))
		r.check(math.IsNaN(s.CDF(0)), "kll/empty-cdf",
			"%s: empty sketch CDF(0) = %v, want NaN", label, s.CDF(0))
		return
	}
	eps := s.RankErrorBound()
	slack := eps * float64(n)

	// Rank accuracy at (capped) distinct values and the extremes.
	const maxProbes = 256
	probes := distinctProbes(clean, maxProbes)
	probes = append(probes, math.Inf(-1), math.Inf(1))
	for _, x := range probes {
		trueRank := countLessEq(clean, x)
		est := float64(s.Rank(x))
		if !r.check(math.Abs(est-float64(trueRank)) <= slack, "kll/rank-error",
			"%s: Rank(%v) = %v, true rank %d, |Δ| > bound %.4g (k=%d, n=%d)",
			label, x, est, trueRank, slack, s.K(), n) {
			return // one witness is enough; avoid flooding the report
		}
	}

	// Quantile accuracy and monotonicity.
	prev := math.Inf(-1)
	for _, q := range quantileGrid {
		v := s.Quantile(q)
		if !r.check(!math.IsNaN(v), "kll/quantile-nan",
			"%s: Quantile(%v) = NaN on a non-empty sketch", label, q) {
			return
		}
		r.check(v >= clean[0] && v <= clean[n-1], "kll/quantile-range",
			"%s: Quantile(%v) = %v outside stream range [%v, %v]",
			label, q, v, clean[0], clean[n-1])
		r.check(v >= prev, "kll/quantile-monotonic",
			"%s: Quantile(%v) = %v < previous grid value %v", label, q, v, prev)
		prev = v
		lo := float64(countLess(clean, v))
		hi := float64(countLessEq(clean, v))
		target := q * float64(n)
		qslack := 3*slack + 1
		r.check(target >= lo-qslack && target <= hi+qslack, "kll/quantile-rank",
			"%s: Quantile(%v) = %v has true rank interval [%v, %v], target %v ± %.4g",
			label, q, v, lo, hi, target, qslack)
	}
}

// distinctProbes returns up to max distinct values of the sorted
// slice, evenly spaced across its distinct values.
func distinctProbes(sorted []float64, max int) []float64 {
	distinct := make([]float64, 0, len(sorted))
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			distinct = append(distinct, v)
		}
	}
	if len(distinct) <= max {
		return distinct
	}
	out := make([]float64, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, distinct[i*len(distinct)/max])
	}
	return out
}

func countLessEq(sorted []float64, x float64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })
}

func countLess(sorted []float64, x float64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
}

// CheckSpaceSaving asserts the frequent-items contract against exact
// counts (truth maps item → true frequency; items absent from truth
// have true frequency 0):
//
//   - Count() equals the total stream weight;
//   - at most Capacity() counters are tracked;
//   - every tracked item brackets its true count:
//     true ≤ Count ≤ true + Err (the PR 4 merge-path invariant);
//   - every *untracked* item's true count is at most UntrackedBound()
//     (the classical floor for pure streams, the carried eviction
//     bound after merges) — the guarantee that heavy hitters cannot
//     be silently dropped.
func CheckSpaceSaving(r *Report, label string, s *sketch.SpaceSaving, truth map[string]uint64) {
	var total uint64
	for _, c := range truth {
		total += c
	}
	r.check(s.Count() == total, "ss/count",
		"%s: Count() = %d, stream weight %d", label, s.Count(), total)
	r.check(s.TrackedItems() <= s.Capacity(), "ss/capacity",
		"%s: %d counters tracked, capacity %d", label, s.TrackedItems(), s.Capacity())

	top := s.Top(0)
	floor := s.UntrackedBound()
	tracked := make(map[string]bool, len(top))
	for _, h := range top {
		tracked[h.Item] = true
		t := truth[h.Item]
		r.check(h.Count >= t, "ss/underestimate",
			"%s: item %q estimated %d < true %d", label, h.Item, h.Count, t)
		r.check(h.Count <= t+h.Err, "ss/overestimate",
			"%s: item %q estimated %d > true %d + err %d", label, h.Item, h.Count, t, h.Err)
		r.check(h.Err <= h.Count, "ss/err-bound",
			"%s: item %q err %d exceeds its own count %d", label, h.Item, h.Err, h.Count)
	}
	for item, t := range truth {
		if tracked[item] {
			continue
		}
		if !r.check(t <= floor, "ss/untracked-floor",
			"%s: untracked item %q has true count %d > floor %d", label, item, t, floor) {
			return
		}
	}
}

// CheckKMV asserts the distinct-count contract. In the exact regime —
// fewer distinct hashes retained than k — the estimate must equal the
// true distinct count (64-bit hash collisions are possible in
// principle but have negligible probability at sketch sizes; a
// collision would surface here as a deterministic, reproducible
// violation worth knowing about).
func CheckKMV(r *Report, label string, s *sketch.KMV, trueDistinct int) {
	d := s.Distinct()
	r.check(d >= 0 && !math.IsNaN(d), "kmv/non-negative",
		"%s: Distinct() = %v", label, d)
	if trueDistinct < s.K() {
		r.check(d == float64(trueDistinct), "kmv/exact-regime",
			"%s: %d distinct values (< k=%d) but Distinct() = %v",
			label, trueDistinct, s.K(), d)
	}
	if trueDistinct > 0 {
		r.check(d > 0, "kmv/positive",
			"%s: stream has %d distinct values but Distinct() = %v", label, trueDistinct, d)
	}
}

// CheckEntropy asserts the composed entropy estimator's contract for
// one (SpaceSaving, KMV) pair: the estimate is finite and
// non-negative, and the normalized form lies in [0, 1] — for any
// sketch state, including empty sketches, single-distinct streams and
// heavy-hitter mass exceeding the KMV distinct estimate.
func CheckEntropy(r *Report, label string, heavy *sketch.SpaceSaving, distinct *sketch.KMV) {
	h := sketch.EntropyEstimate(heavy, distinct)
	r.check(!math.IsNaN(h) && !math.IsInf(h, 0), "entropy/finite",
		"%s: EntropyEstimate = %v", label, h)
	r.check(h >= 0, "entropy/non-negative",
		"%s: EntropyEstimate = %v < 0", label, h)
	u := sketch.NormalizedEntropyEstimate(heavy, distinct)
	r.check(!math.IsNaN(u) && u >= 0 && u <= 1, "entropy/normalized-range",
		"%s: NormalizedEntropyEstimate = %v outside [0,1]", label, u)
}
