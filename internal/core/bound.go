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
// no remaining candidate can enter the top k. The bounds are
// certificates (Successor): an exact score's own certificate bounds the
// score after rows are appended (segmentation, monotonic's Spearman,
// multimodality's dip), so they cut the expensive passes right after an
// ingest and need no profile. A candidate without a certificate has no
// bound and is never skipped.
//
// Soundness contract: for every candidate tuple a bound must be ≥ the
// score the class returns — pruning on an unsound bound silently
// changes results — and +Inf where no sound bound exists. The
// `foresight selfcheck` gate (CheckSuccessorBounds) and the engine's
// oracle tests (query.TestPruningOnDemoDatasets) cross-check the
// inequality on real data.

// Certificate is what an exact score leaves behind for SuccessorBound:
// immutable, and opaque outside the class that made it.
type Certificate []float64

// Successor is an optional Class extension for exact scores that
// outlive an append. ScoreCertified is Score plus its certificate (nil
// when none). SuccessorBound must be ≥ what Score returns for attrs on
// any f that extends the certificate's frame by appended rows, or +Inf;
// the engine prunes on it.
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

// boundSlack inflates a certificate's bound so floating-point
// accumulation-order differences between the kernel's bound and the
// exact scorer's pass cannot flip `bound ≥ score` into a lie: v → v +
// |v|·1e-6 + 1e-9. The relative term covers n·ε-style divergence up to
// ~1 ppm and the absolute term covers bounds near zero; the selfcheck
// successor gate watches for data that exceeds it.
func boundSlack(v float64) float64 {
	return v + math.Abs(v)*1e-6 + 1e-9
}

// ScoreBoundFor is +Inf for every candidate: classes bound their
// scores only by certificates (Successor), which need no profile.
//
// Deprecated: kept for callers that timed profile bounds; nothing prunes on it.
func ScoreBoundFor(c Class, p *sketch.DatasetProfile, attrs []string, metric string) float64 {
	return math.Inf(1)
}

// SuccessorBound is the dip plus what the rows appended since the
// certificate can move it, b/(n+b) for n values (DESIGN §7.3), inflated.
func (c *multimodalityClass) SuccessorBound(cert Certificate, f *frame.Frame, attrs []string, metric string) float64 {
	appended := f.Rows() - int(cert[0])
	if metric != "dip" || appended < 0 {
		return math.Inf(1)
	}
	return boundSlack(stats.DipBound(cert[2], int(cert[1]), appended))
}

// SuccessorBound is the rank sums' bound on |ρ| after the rows appended
// since the certificate (stats.RankSums.Bound, DESIGN §7.3), inflated.
// Kendall leaves no certificate.
func (c *monotonicClass) SuccessorBound(cert Certificate, f *frame.Frame, attrs []string, metric string) float64 {
	appended := f.Rows() - int(cert[0])
	if metric != "spearman" || appended < 0 {
		return math.Inf(1)
	}
	s := stats.RankSums{M: int(cert[1]), XX: cert[2], YY: cert[3], XY: cert[4]}
	return boundSlack(s.Bound(appended))
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

// BoundViolation reports one sampled candidate whose computed score
// exceeded its certificate's bound — an unsound Successor that would
// let pruning change results.
type BoundViolation struct {
	Class  string
	Metric string
	Attrs  []string
	Score  float64
	Bound  float64
}

// CheckSuccessorBounds cross-checks SuccessorBound ≥ Score, the
// selfcheck gate CI runs on the demo datasets: for every registered class
// implementing Successor and every metric it declares, up to perClass
// candidates of f (evenly strided; ≤ 0 = all) are certified on f and
// scored on grown, which must extend f by appended rows.
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
						Score: in.Score, Bound: bound,
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
