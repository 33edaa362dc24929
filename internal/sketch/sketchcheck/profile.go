package sketchcheck

import (
	"math"
	"sort"

	"foresight/internal/frame"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// momentsEqual compares moment accumulators field by field with
// NaN-tolerant equality — struct equality would call two identical
// all-NaN accumulators unequal (found by FuzzExtendVsRebuild).
func momentsEqual(a, b stats.Moments) bool {
	return a.N == b.N &&
		sameFloat(a.Mean, b.Mean) && sameFloat(a.M2, b.M2) &&
		sameFloat(a.M3, b.M3) && sameFloat(a.M4, b.M4) &&
		sameFloat(a.MinVal, b.MinVal) && sameFloat(a.MaxVal, b.MaxVal)
}

// CheckProfileInvariants asserts a DatasetProfile against the frame it
// summarizes: every per-column sketch is checked against the exact
// column (ground truth), counts are consistent across sketches that
// saw the same stream, and composed estimators stay inside their
// ranges. It holds for profiles built along *any* path — one pass,
// extended, reloaded, on any worker count — because every assertion
// is against ground truth rather than against another build path.
func CheckProfileInvariants(r *Report, p *sketch.DatasetProfile, f *frame.Frame) {
	r.check(p.Rows == f.Rows(), "profile/rows",
		"profile covers %d rows, frame has %d", p.Rows, f.Rows())
	r.check(len(p.Numeric) == len(f.NumericColumns()), "profile/numeric-columns",
		"%d numeric profiles for %d numeric columns", len(p.Numeric), len(f.NumericColumns()))
	r.check(len(p.Categorical) == len(f.CategoricalColumns()), "profile/categorical-columns",
		"%d categorical profiles for %d categorical columns",
		len(p.Categorical), len(f.CategoricalColumns()))

	for _, nc := range f.NumericColumns() {
		name := nc.Name()
		np, ok := p.Numeric[name]
		if !r.check(ok, "profile/numeric-missing", "no profile for numeric column %q", name) {
			continue
		}
		values := nc.Values()
		nonNaN, finite := 0, true
		var exactSum float64
		for _, v := range values {
			if math.IsNaN(v) {
				continue
			}
			nonNaN++
			exactSum += v
			if math.IsInf(v, 0) {
				finite = false
			}
		}
		r.check(np.Moments.Count() == int64(nonNaN), "profile/moments-count",
			"%s: Moments.Count() = %d, column has %d non-NaN values",
			name, np.Moments.Count(), nonNaN)
		CheckKLL(r, name, np.Quantiles, values)
		r.check(np.Sample.Count() == uint64(nonNaN), "profile/sample-count",
			"%s: Sample.Count() = %d, column has %d non-NaN values",
			name, np.Sample.Count(), nonNaN)
		r.check(len(np.Sample.Sample()) <= nonNaN || nonNaN == 0, "profile/sample-size",
			"%s: reservoir holds %d items from a %d-value stream",
			name, len(np.Sample.Sample()), nonNaN)
		// The running mean must agree with the exact mean up to
		// floating-point reassociation (merge paths re-associate sums).
		if nonNaN > 0 && finite {
			exactMean := exactSum / float64(nonNaN)
			r.check(relClose(np.Moments.Mean, exactMean, 1e-9), "profile/mean-exact",
				"%s: Moments.Mean = %v, exact mean %v", name, np.Moments.Mean, exactMean)
		}
		if r.check(np.Proj != nil && np.Planes != nil, "profile/projection-missing",
			"%s: projection sketches missing", name) {
			r.check(np.Proj.K() == np.Planes.K(), "profile/projection-k",
				"%s: Proj.K() = %d, Planes.K() = %d", name, np.Proj.K(), np.Planes.K())
			self := np.Planes.EstimateCorrelation(np.Planes)
			r.check(self == 1, "profile/self-correlation",
				"%s: self-correlation = %v, want 1", name, self)
		}
		r.check(len(np.RowSampleValues) == p.RowSample.Len(), "profile/row-sample-gather",
			"%s: %d row-sample values for %d shared indexes",
			name, len(np.RowSampleValues), p.RowSample.Len())
		if finite {
			out := np.OutlierScoreEstimate(0)
			r.check(!math.IsNaN(out) && out >= 0, "profile/outlier-range",
				"%s: OutlierScoreEstimate = %v", name, out)
		}
	}

	for _, cc := range f.CategoricalColumns() {
		name := cc.Name()
		cp, ok := p.Categorical[name]
		if !r.check(ok, "profile/categorical-missing", "no profile for categorical column %q", name) {
			continue
		}
		dict := cc.Dict()
		truth := make(map[string]uint64, len(dict))
		var rows uint64
		for _, code := range cc.Codes() {
			if code < 0 {
				continue
			}
			truth[dict[code]]++
			rows++
		}
		r.check(cp.Rows == rows, "profile/categorical-rows",
			"%s: profile Rows = %d, column has %d non-missing cells", name, cp.Rows, rows)
		CheckSpaceSaving(r, name, cp.Heavy, truth)
		r.check(cp.Distinct.Count() == rows, "profile/kmv-count",
			"%s: Distinct.Count() = %d, column has %d non-missing cells",
			name, cp.Distinct.Count(), rows)
		CheckKMV(r, name, cp.Distinct, len(truth))
		r.check(cp.Cardinality == cc.Cardinality(), "profile/cardinality",
			"%s: profile Cardinality = %d, column dictionary has %d values",
			name, cp.Cardinality, cc.Cardinality())
		CheckEntropy(r, name, cp.Heavy, cp.Distinct)
		r.check(len(cp.RowSampleCodes) == p.RowSample.Len(), "profile/row-sample-gather",
			"%s: %d row-sample codes for %d shared indexes",
			name, len(cp.RowSampleCodes), p.RowSample.Len())
	}
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*math.Max(scale, 1)
}

// CheckProfileQueryIdentity asserts that two profiles answer every
// supported query identically — the contract of persist→load. NaN
// answers must match NaN answers.
func CheckProfileQueryIdentity(r *Report, label string, a, b *sketch.DatasetProfile) {
	r.check(a.Rows == b.Rows, "identity/rows",
		"%s: rows %d vs %d", label, a.Rows, b.Rows)
	ca, cb := a.Config, b.Config
	ca.Workers, cb.Workers = 0, 0 // describes the building process; Save does not write it
	r.check(ca == cb, "identity/config", "%s: configs differ", label)
	r.check(len(a.Numeric) == len(b.Numeric) && len(a.Categorical) == len(b.Categorical),
		"identity/shape", "%s: profile shapes differ (%d+%d vs %d+%d)",
		label, len(a.Numeric), len(a.Categorical), len(b.Numeric), len(b.Categorical))

	names := make([]string, 0, len(a.Numeric))
	for name, na := range a.Numeric {
		nb, ok := b.Numeric[name]
		if !r.check(ok, "identity/numeric-missing", "%s: column %q lost", label, name) {
			continue
		}
		names = append(names, name)
		r.check(momentsEqual(na.Moments, nb.Moments), "identity/moments",
			"%s: %s moments differ: %+v vs %+v", label, name, na.Moments, nb.Moments)
		for _, q := range quantileGrid {
			va, vb := na.Quantiles.Quantile(q), nb.Quantiles.Quantile(q)
			r.check(sameFloat(va, vb), "identity/quantile",
				"%s: %s Quantile(%v): %v vs %v", label, name, q, va, vb)
		}
		r.check(na.Quantiles.Count() == nb.Quantiles.Count(), "identity/kll-count",
			"%s: %s KLL counts differ: %d vs %d", label, name,
			na.Quantiles.Count(), nb.Quantiles.Count())
		r.check(sameFloat(na.OutlierScoreEstimate(0), nb.OutlierScoreEstimate(0)),
			"identity/outlier", "%s: %s outlier estimates differ: %v vs %v",
			label, name, na.OutlierScoreEstimate(0), nb.OutlierScoreEstimate(0))
		r.check(sameFloat(na.DipEstimate(), nb.DipEstimate()),
			"identity/dip", "%s: %s dip estimates differ: %v vs %v",
			label, name, na.DipEstimate(), nb.DipEstimate())
		r.check(floatsEqual(na.Sample.Sample(), nb.Sample.Sample()), "identity/sample",
			"%s: %s reservoir samples differ", label, name)
		r.check(floatsEqual(na.RowSampleValues, nb.RowSampleValues), "identity/row-sample",
			"%s: %s row-sample values differ", label, name)
	}
	// Pairwise correlation estimates (both estimator families).
	for i := 0; i < len(names) && i < 8; i++ {
		for j := i + 1; j < len(names) && j < 8; j++ {
			x, y := names[i], names[j]
			pa, ea := a.EstimatePearson(x, y)
			pb, eb := b.EstimatePearson(x, y)
			r.check((ea == nil) == (eb == nil) && sameFloat(pa, pb), "identity/pearson",
				"%s: Pearson(%s,%s): %v/%v vs %v/%v", label, x, y, pa, ea, pb, eb)
			ja, _ := a.EstimatePearsonJL(x, y)
			jb, _ := b.EstimatePearsonJL(x, y)
			r.check(sameFloat(ja, jb), "identity/pearson-jl",
				"%s: JL Pearson(%s,%s): %v vs %v", label, x, y, ja, jb)
		}
	}
	for name, ca := range a.Categorical {
		cb, ok := b.Categorical[name]
		if !r.check(ok, "identity/categorical-missing", "%s: column %q lost", label, name) {
			continue
		}
		r.check(ca.Rows == cb.Rows, "identity/categorical-rows",
			"%s: %s rows %d vs %d", label, name, ca.Rows, cb.Rows)
		r.check(ca.Cardinality == cb.Cardinality, "identity/cardinality",
			"%s: %s cardinality %d vs %d", label, name, ca.Cardinality, cb.Cardinality)
		r.check(hittersEqual(ca.Heavy.Top(0), cb.Heavy.Top(0)), "identity/heavy",
			"%s: %s heavy-hitter lists differ", label, name)
		r.check(ca.Distinct.Distinct() == cb.Distinct.Distinct(), "identity/distinct",
			"%s: %s Distinct(): %v vs %v", label, name,
			ca.Distinct.Distinct(), cb.Distinct.Distinct())
		r.check(sameFloat(ca.EntropyEstimate(), cb.EntropyEstimate()), "identity/entropy",
			"%s: %s entropy: %v vs %v", label, name, ca.EntropyEstimate(), cb.EntropyEstimate())
		r.check(sameFloat(ca.UniformityEstimate(), cb.UniformityEstimate()), "identity/uniformity",
			"%s: %s uniformity: %v vs %v", label, name,
			ca.UniformityEstimate(), cb.UniformityEstimate())
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func hittersEqual(a, b []sketch.HeavyHitter) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckProfilesCompatible asserts that two profiles built over the
// same data along different paths (one pass vs Extend, or a WAL
// recovery) agree within stated bounds:
//
//   - exact statistics — row counts, moment counts, min/max,
//     cardinalities, KMV distinct estimates (whose merge is exactly
//     one-pass) — must be equal;
//   - means agree up to floating-point reassociation;
//   - KLL answers agree in *rank space*: |CDF_a(x) − CDF_b(x)| ≤
//     εa + εb at probe points (each sketch is within its own rank
//     bound of the truth, so their distance is bounded by the sum);
//   - estimator outputs that feed insight scores (entropy,
//     uniformity, heavy-hitter lists) agree within scoreTol — callers
//     pass DefaultScoreTol;
//   - Pearson estimates are gated only when sameCenters is true, i.e.
//     both builds centered projections on the full-data means. Extend
//     keeps the base profile's prefix-mean centers — a documented
//     live-ingest tradeoff — so against a from-scratch rebuild it is
//     a *different estimator* whose drift is unbounded on
//     mean-shifting columns, not an execution-order invariant;
//   - Spearman estimates are gated the same way whenever both sides
//     carry rank projections (Extend drops them).
//
// Reservoir-fed estimators (outlier, dip) are deliberately NOT
// cross-checked: different build paths legitimately retain different
// samples, and a mean over the few sampled fence-outliers swings
// arbitrarily (including 0 vs nonzero) with the draw. Each path's
// estimate is instead checked against ground truth in
// CheckProfileInvariants.
func CheckProfilesCompatible(r *Report, label string, a, b *sketch.DatasetProfile, scoreTol float64, sameCenters bool) {
	r.check(a.Rows == b.Rows, "compat/rows", "%s: rows %d vs %d", label, a.Rows, b.Rows)
	names := make([]string, 0, len(a.Numeric))
	for name, na := range a.Numeric {
		nb, ok := b.Numeric[name]
		if !r.check(ok, "compat/numeric-missing", "%s: column %q missing", label, name) {
			continue
		}
		names = append(names, name)
		r.check(na.Moments.Count() == nb.Moments.Count(), "compat/moments-count",
			"%s: %s moment counts %d vs %d", label, name,
			na.Moments.Count(), nb.Moments.Count())
		r.check(sameFloat(na.Moments.MinVal, nb.Moments.MinVal) &&
			sameFloat(na.Moments.MaxVal, nb.Moments.MaxVal), "compat/minmax",
			"%s: %s min/max differ: [%v,%v] vs [%v,%v]", label, name,
			na.Moments.MinVal, na.Moments.MaxVal, nb.Moments.MinVal, nb.Moments.MaxVal)
		r.check(relClose(na.Moments.Mean, nb.Moments.Mean, 1e-9) ||
			(math.IsNaN(na.Moments.Mean) && math.IsNaN(nb.Moments.Mean)), "compat/mean",
			"%s: %s means differ: %v vs %v", label, name, na.Moments.Mean, nb.Moments.Mean)
		// Rank-space agreement at a's quantile probes.
		if na.Quantiles.Count() > 0 && nb.Quantiles.Count() > 0 {
			bound := na.Quantiles.RankErrorBound() + nb.Quantiles.RankErrorBound()
			for _, q := range quantileGrid {
				x := na.Quantiles.Quantile(q)
				da, db := na.Quantiles.CDF(x), nb.Quantiles.CDF(x)
				r.check(math.Abs(da-db) <= bound, "compat/cdf",
					"%s: %s CDF(%v) = %v vs %v, |Δ| > εa+εb = %.4g",
					label, name, x, da, db, bound)
			}
		}
	}
	sort.Strings(names)
	for i := 0; i < len(names) && i < 8; i++ {
		for j := i + 1; j < len(names) && j < 8; j++ {
			x, y := names[i], names[j]
			// The SimHash estimator lives on the cos(π·m/K) grid and
			// carries ~π/(2√K) angular noise, so two builds that center
			// projections differently (Extend keeps the base profile's
			// prefix means) legitimately disagree by a few bit flips.
			// Gate at the score tolerance plus that resolution term;
			// same-centering paths produce identical bits and pass the
			// bare scoreTol regardless.
			tol := scoreTol
			if na := a.Numeric[x]; na.Planes != nil && na.Planes.K() > 0 {
				tol += math.Pi / math.Sqrt(float64(na.Planes.K()))
			}
			if sameCenters {
				pa, _ := a.EstimatePearson(x, y)
				pb, _ := b.EstimatePearson(x, y)
				r.check(math.Abs(pa-pb) <= tol || (math.IsNaN(pa) && math.IsNaN(pb)),
					"compat/pearson", "%s: Pearson(%s,%s) %v vs %v exceeds gate %.3f (score %.2f + SimHash resolution)",
					label, x, y, pa, pb, tol, scoreTol)
			}
			// Rank projections are centered on the mean rank, a function
			// of the whole frame, so every path that carries them centers
			// alike.
			sa, errA := a.EstimateSpearman(x, y)
			sb, errB := b.EstimateSpearman(x, y)
			if errA == nil && errB == nil {
				r.check(math.Abs(sa-sb) <= tol || (math.IsNaN(sa) && math.IsNaN(sb)),
					"compat/spearman", "%s: Spearman(%s,%s) %v vs %v exceeds gate %.3f (score %.2f + SimHash resolution)",
					label, x, y, sa, sb, tol, scoreTol)
			}
		}
	}
	for name, ca := range a.Categorical {
		cb, ok := b.Categorical[name]
		if !r.check(ok, "compat/categorical-missing", "%s: column %q missing", label, name) {
			continue
		}
		r.check(ca.Rows == cb.Rows, "compat/categorical-rows",
			"%s: %s rows %d vs %d", label, name, ca.Rows, cb.Rows)
		r.check(ca.Cardinality == cb.Cardinality, "compat/cardinality",
			"%s: %s cardinality %d vs %d", label, name, ca.Cardinality, cb.Cardinality)
		// KMV merge is exactly one-pass: the distinct estimate may not
		// drift at all between build paths.
		r.check(ca.Distinct.Distinct() == cb.Distinct.Distinct(), "compat/distinct",
			"%s: %s Distinct() %v vs %v (KMV merge must be exact)",
			label, name, ca.Distinct.Distinct(), cb.Distinct.Distinct())
		ea, eb := ca.UniformityEstimate(), cb.UniformityEstimate()
		r.check(math.Abs(ea-eb) <= scoreTol, "compat/uniformity",
			"%s: %s uniformity %v vs %v exceeds score gate %.2f", label, name, ea, eb, scoreTol)
	}
}
