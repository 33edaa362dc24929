package core

import (
	"math"

	"foresight/internal/frame"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// This file implements the upper-bound side of threshold-style top-k
// pruning (the engine's scoring pass in internal/query): the engine
// orders candidates by their best possible score and stops scoring once
// no remaining candidate can enter the top k. A bound cuts only if it
// can fall below an in-range threshold, so every bound here is computed
// for the candidate itself; a class with nothing better than its
// metric's range has no bound and its candidates are never skipped.
//
// Soundness contract: for every candidate tuple a bound must be ≥ the
// score the class returns — pruning on an unsound bound silently
// changes results — and +Inf where no sound bound exists (the engine
// never prunes those candidates). There are two sources:
//
//  1. Profile bounds (Bounder), from sketch identities: the profile's
//     Moments are exact running sums over the same cells the exact
//     scorer reads, SpaceSaving estimates are per-item upper bounds and
//     the per-column cardinalities are exact, so the variance/stddev/
//     IQR/skewness/kurtosis/normality/outlier bounds, the RelFreq mass
//     bracket and catassoc's MI ≤ ln min(r,c) dominate both scoring
//     paths, up to floating-point accumulation order (boundSlack).
//  2. Certificates (Successor): an exact score's own certificate bounds
//     the score after rows are appended (segmentation, monotonic's
//     Spearman, multimodality's dip). They need no profile.
//
// The engine prunes on the lower of the two. The `foresight selfcheck`
// gates (CheckScoreBounds, CheckSuccessorBounds) and the engine's
// oracle tests (query.TestPruningOnDemoDatasets) cross-check both
// inequalities on real data.

// Bounder is an optional Class extension: the profile-bound source of
// the engine's threshold-style top-k pruning.
//
// ScoreBound returns an upper bound on the score Score or ScoreApprox
// can return for attrs under the resolved metric, computed only from
// the candidate's own columns in the preprocessed profile (never from raw data — it must be O(1)-ish
// per candidate, far cheaper than scoring). It returns +Inf when no
// sound bound exists for the metric or the needed column profile is
// missing; NaN is treated as +Inf by callers. The bound must hold for
// BOTH scoring paths, since the engine prunes exact and approximate
// queries alike.
type Bounder interface {
	ScoreBound(p *sketch.DatasetProfile, attrs []string, metric string) float64
}

// Certificate is what an exact score leaves behind for SuccessorBound:
// immutable, and opaque outside the class that made it.
type Certificate []float64

// Successor is an optional Class extension for exact scores that
// outlive an append. ScoreCertified is Score plus its certificate (nil
// when none). SuccessorBound must be ≥ what Score returns for attrs on
// any f that extends the certificate's frame by appended rows, or +Inf;
// the engine prunes on min(ScoreBound, SuccessorBound).
type Successor interface {
	ScoreCertified(f *frame.Frame, attrs []string, metric string) (Insight, Certificate, error)
	SuccessorBound(cert Certificate, f *frame.Frame, attrs []string, metric string) float64
}

// RunScorer is an optional Class extension for exact scores whose
// kernel reads a candidate's first column once for a run of partners.
// ScoreRun writes to out[k] what Score(f, run[k], metric) returns, bit
// for bit, for candidates that all share run[0][0]; on an error, which
// may come from any candidate, out is unspecified and each candidate
// is to be scored alone. RunWidth partners fill one scan.
type RunScorer interface {
	ScoreRun(f *frame.Frame, run [][]string, metric string, out []Insight) error
}

// RunWidth is how many candidates of a run one scan serves.
const RunWidth = stats.RunWidth

// boundSlack inflates a sketch-identity bound so floating-point
// accumulation-order differences between the profile's moments
// (possibly merged by Extend) and the exact scorer's sequential
// pass cannot flip `bound ≥ score` into a lie: v → v + |v|·1e-6 +
// 1e-9. The relative term covers n·ε-style divergence up to ~1 ppm —
// orders of magnitude beyond what well-conditioned data produces —
// and the absolute term covers bounds near zero. Pathologically
// conditioned columns (|mean|/σ ≳ 1e9) could in principle exceed it;
// the selfcheck bound gate watches for that.
func boundSlack(v float64) float64 {
	return v + math.Abs(v)*1e-6 + 1e-9
}

// ScoreBoundFor resolves the bound for one candidate: +Inf when c
// does not implement Bounder, the profile is nil, or the bound comes
// back NaN. The engine and the selfcheck gate both normalize through
// here so "no bound" and "bound undefined" behave identically (never
// pruned).
func ScoreBoundFor(c Class, p *sketch.DatasetProfile, attrs []string, metric string) float64 {
	b, ok := c.(Bounder)
	if !ok || p == nil {
		return math.Inf(1)
	}
	v := b.ScoreBound(p, attrs, metric)
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// ScoreBound bounds the moment-family scores (dispersion, skew,
// heavytails) from the profile's exact running moments, a sketch
// identity: both scorers compute the same statistic from the
// same cells, so the profile value plus slack dominates. The IQR is
// bounded by the full range (exact min/max) because the KLL quantile
// estimate returns actual data values and the exact IQR is a spread
// within [min, max]; cv has no sound bound (a near-zero mean makes it
// arbitrarily ill-conditioned).
func (c *momentsClass) ScoreBound(p *sketch.DatasetProfile, attrs []string, metric string) float64 {
	_, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return math.Inf(1)
	}
	m := &ps.num[0].Moments
	switch metric {
	case "variance":
		return boundSlack(m.Variance())
	case "stddev":
		return boundSlack(m.StdDev())
	case "iqr":
		return boundSlack(m.Max() - m.Min())
	case "skewness":
		return boundSlack(math.Abs(m.Skewness()))
	case "kurtosis":
		return boundSlack(m.Kurtosis())
	case "excess":
		return boundSlack(math.Max(m.ExcessKurtosis(), 0))
	default: // cv and unknown metrics
		return math.Inf(1)
	}
}

// ScoreBound bounds the outlier score for the meandist and iqr
// metrics: every detected outlier's standardized distance |x−μ|/σ is
// at most max(max−μ, μ−min)/σ whatever the detector picks, and the
// score is a mean of such distances — sound for any detector,
// including user-configured ones, and for the sketch path (which
// standardizes reservoir values, all inside [min, max], by the same
// full moments). The zscore and mad variants standardize by
// *sample* moments on the sketch path, which the full-data bound
// does not dominate, so they return +Inf.
func (c *outliersClass) ScoreBound(p *sketch.DatasetProfile, attrs []string, metric string) float64 {
	switch metric {
	case "meandist", "iqr":
	default:
		return math.Inf(1)
	}
	_, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return math.Inf(1)
	}
	m := &ps.num[0].Moments
	sd := m.StdDev()
	if sd == 0 || math.IsNaN(sd) {
		// Degenerate spread: the scorers return NaN (filtered), so any
		// bound is vacuously sound; 0 lets the candidate be skipped.
		return 0
	}
	return boundSlack(math.Max(m.Max()-m.Mean, m.Mean-m.Min()) / sd)
}

// ScoreBound brackets the RelFreq(k, c) mass from the SpaceSaving
// sketch. For ANY k distinct values with true counts c₁ ≥ … ≥ c_k,
// each c_j is dominated by max(e_j, U) where e₁ ≥ … ≥ e_k are the k
// largest tracked estimates (padded with zeros) and U is the sketch's
// untracked-count bound: tracked items satisfy est ≥ true, untracked
// ones satisfy true ≤ U, and summing the k dominators in order
// dominates the sum of any k true counts. Dividing by the stream
// count (equal to the exact total: both count every non-missing cell)
// keeps the inequality — float division is monotone in the numerator
// — so no slack is needed; the sketch-path RelFreqTopK is dominated
// term by term.
func (c *heavyHittersClass) ScoreBound(p *sketch.DatasetProfile, attrs []string, metric string) float64 {
	_, ps, err := c.onProfile(p, attrs, metric)
	if metric != "relfreq" || err != nil || ps.cat[0].Heavy == nil {
		return math.Inf(1)
	}
	cp := ps.cat[0]
	n := cp.Heavy.Count()
	if n == 0 {
		return math.Inf(1)
	}
	u := cp.Heavy.UntrackedBound()
	top := cp.Heavy.Top(c.k)
	var sum uint64
	for _, h := range top {
		if h.Count > u {
			sum += h.Count
		} else {
			sum += u
		}
	}
	for i := len(top); i < c.k; i++ {
		sum += u
	}
	b := float64(sum) / float64(n)
	if b > 1 {
		b = 1 // both scorers clamp ≤ 1
	}
	return b
}

// SuccessorBound is the dip plus what the rows appended since the
// certificate can move it, b/(n+b) for n values (DESIGN §6j), inflated.
func (c *multimodalityClass) SuccessorBound(cert Certificate, f *frame.Frame, attrs []string, metric string) float64 {
	appended := f.Rows() - int(cert[0])
	if metric != "dip" || appended < 0 {
		return math.Inf(1)
	}
	return boundSlack(stats.DipBound(cert[2], int(cert[1]), appended))
}

// SuccessorBound is the rank sums' bound on |ρ| after the rows appended
// since the certificate (stats.RankSums.Bound, DESIGN §6j), inflated.
// Kendall leaves no certificate.
func (c *monotonicClass) SuccessorBound(cert Certificate, f *frame.Frame, attrs []string, metric string) float64 {
	appended := f.Rows() - int(cert[0])
	if metric != "spearman" || appended < 0 {
		return math.Inf(1)
	}
	s := stats.RankSums{M: int(cert[1]), XX: cert[2], YY: cert[3], XY: cert[4]}
	return boundSlack(s.Bound(appended))
}

// ScoreBound caps mutual information at ln min(cardinality): MI in
// nats never exceeds the log cardinality of the smaller side, and the
// per-column profiles carry exact cardinalities. Both scoring paths
// build contingency tables whose support is capped by those
// cardinalities. Cramér's V has no bound below its range's top.
func (c *catAssocClass) ScoreBound(p *sketch.DatasetProfile, attrs []string, metric string) float64 {
	if metric != "mutualinfo" {
		return math.Inf(1)
	}
	_, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return math.Inf(1)
	}
	card := min(ps.cat[0].Cardinality, ps.cat[1].Cardinality)
	if card < 1 {
		return math.Inf(1)
	}
	return boundSlack(math.Log(float64(card)))
}

// SuccessorBound is the kernel's bound on the raw silhouette, inflated
// and clamped as the score is.
func (c *segmentationClass) SuccessorBound(cert Certificate, f *frame.Frame, attrs []string, metric string) float64 {
	_, cols, err := c.onFrame(f, attrs, metric)
	if metric != "silhouette" || err != nil {
		return math.Inf(1)
	}
	z := cols.cat[2]
	b := stats.SilhouetteCert(cert).Bound(cols.num[0].Ordered(), cols.num[1].Ordered(), z.Codes(), z.Cardinality(), c.step(f.Rows()))
	return max(boundSlack(b), 0)
}

// ScoreBound bounds both normality metrics' ranking score (always
// NormalityScore ∈ (0, 1]) by the profile-moment value plus slack —
// a unit-range metric whose bound discriminates, since both paths
// compute the score from moments of the same cells.
func (c *normalityClass) ScoreBound(p *sketch.DatasetProfile, attrs []string, metric string) float64 {
	_, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return math.Inf(1)
	}
	return boundSlack(ps.num[0].Moments.NormalityScore())
}

// BoundViolation reports one sampled candidate whose computed score
// exceeded its claimed upper bound — an unsound Bounder that would
// let pruning change results.
type BoundViolation struct {
	Class  string
	Metric string
	Attrs  []string
	// Mode is "exact" or "approx" — which scoring path broke the bound —
	// or "successor", an exact score above its certificate's bound.
	Mode  string
	Score float64
	Bound float64
}

// CheckScoreBounds cross-checks ScoreBound ≥ Score on sampled
// candidates: for every registered class implementing Bounder and
// every metric it declares, up to perClass candidates (evenly strided;
// ≤ 0 = all) are scored on both the exact and the sketch path and
// compared against the claimed bound. This is the selfcheck gate the
// CI runs on the demo datasets, and the negative-test hook proving a
// deliberately unsound bound is caught.
func CheckScoreBounds(reg *Registry, f *frame.Frame, p *sketch.DatasetProfile, perClass int) []BoundViolation {
	var out []BoundViolation
	if reg == nil || f == nil || p == nil {
		return out
	}
	for _, c := range reg.Classes() {
		if _, ok := c.(Bounder); !ok {
			continue
		}
		cands := c.Candidates(f)
		stride := sampleStride(len(cands), perClass)
		for _, metric := range c.Metrics() {
			for i := 0; i < len(cands); i += stride {
				attrs := cands[i]
				bound := ScoreBoundFor(c, p, attrs, metric)
				if math.IsInf(bound, 1) {
					continue
				}
				if in, err := c.Score(f, attrs, metric); err == nil && in.Score > bound {
					out = append(out, BoundViolation{
						Class: c.Name(), Metric: metric, Attrs: attrs,
						Mode: "exact", Score: in.Score, Bound: bound,
					})
				}
				if in, err := c.ScoreApprox(p, attrs, metric); err == nil && in.Score > bound {
					out = append(out, BoundViolation{
						Class: c.Name(), Metric: metric, Attrs: attrs,
						Mode: "approx", Score: in.Score, Bound: bound,
					})
				}
			}
		}
	}
	return out
}

// CheckSuccessorBounds cross-checks SuccessorBound ≥ Score as
// CheckScoreBounds does ScoreBound: for every registered class
// implementing Successor and every metric it declares, up to perClass
// candidates of f (evenly strided; ≤ 0 = all) are certified on f and
// scored on grown, which must extend f by appended rows. Violations
// carry Mode "successor".
func CheckSuccessorBounds(reg *Registry, f, grown *frame.Frame, perClass int) []BoundViolation {
	var out []BoundViolation
	if reg == nil || f == nil || grown == nil {
		return out
	}
	for _, c := range reg.Classes() {
		s, ok := c.(Successor)
		if !ok {
			continue
		}
		cands := c.Candidates(f)
		stride := sampleStride(len(cands), perClass)
		for _, metric := range c.Metrics() {
			for i := 0; i < len(cands); i += stride {
				attrs := cands[i]
				_, cert, err := s.ScoreCertified(f, attrs, metric)
				if err != nil || cert == nil {
					continue
				}
				bound := s.SuccessorBound(cert, grown, attrs, metric)
				if in, err := c.Score(grown, attrs, metric); err == nil && in.Score > bound {
					out = append(out, BoundViolation{
						Class: c.Name(), Metric: metric, Attrs: attrs,
						Mode: "successor", Score: in.Score, Bound: bound,
					})
				}
			}
		}
	}
	return out
}

// sampleStride is the stride that visits at most perClass of n
// candidates (every one when perClass ≤ 0).
func sampleStride(n, perClass int) int {
	if perClass > 0 && n > perClass {
		return (n + perClass - 1) / perClass
	}
	return 1
}
