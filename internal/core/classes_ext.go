package core

import (
	"foresight/internal/frame"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// This file holds optional insight classes beyond the paper's twelve
// built-ins, shipped as constructors the user registers explicitly
// (the §2.2 plug-in path):
//
//	reg := core.NewRegistry()
//	reg.Register(core.NewNonlinearDependenceClass(0))

// nonlinearClass detects general statistical dependence between two
// numeric attributes — including non-monotone shapes like y = x² that
// both Pearson and Spearman miss — ranked by normalized binned mutual
// information (equal-frequency bins, so the metric is invariant under
// monotone transforms of either attribute).
type nonlinearClass struct {
	spec
	bins int
}

// NewNonlinearDependenceClass returns the numeric×numeric
// general-dependence class with the given quantile-bin count (8 when
// ≤ 0).
func NewNonlinearDependenceClass(bins int) Class {
	if bins <= 0 {
		bins = 8
	}
	return &nonlinearClass{spec: spec{
		name:    "nonlinear",
		desc:    "General (possibly non-monotone) dependence between two numeric attributes",
		metrics: []string{"normmi", "mi"},
		vis:     VisScatter, kinds: "nn",
	}, bins: bins}
}

func (c *nonlinearClass) Candidates(f *frame.Frame) [][]string { return numericPairs(f) }

func (c *nonlinearClass) score(in Insight, xs, ys []float64) Insight {
	var raw float64
	switch in.Metric {
	case "normmi":
		raw = stats.NormalizedBinnedMI(xs, ys, c.bins)
	case "mi":
		raw = stats.BinnedMutualInformation(xs, ys, c.bins)
	}
	return scored(in, raw, map[string]float64{"bins": float64(c.bins)})
}

func (c *nonlinearClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	return c.score(in, cols.num[0].Values(), cols.num[1].Values()), nil
}

func (c *nonlinearClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	in, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	return c.score(in, ps.num[0].RowSampleValues(), ps.num[1].RowSampleValues()), nil
}

// normalityClass ranks numeric attributes by closeness to a normal
// distribution (the §4.1 scenario surfaces "Time Devoted To Leisure
// has a Normal distribution" as an insight). The metric is a
// Jarque–Bera-derived score in (0, 1]; 1 means moment-perfect
// normality. Computed from the moments sketch, so exact and approx
// paths agree.
type normalityClass struct{ spec }

// NewNormalityClass returns the optional normality insight class.
func NewNormalityClass() Class {
	return &normalityClass{spec{
		name:    "normality",
		desc:    "Distribution close to normal (low Jarque–Bera)",
		metrics: []string{"normscore", "jarquebera"},
		vis:     VisHistogram, kinds: "n",
	}}
}

func (c *normalityClass) Candidates(f *frame.Frame) [][]string {
	return numericCandidates(f)
}

func normalityInsight(in Insight, m *sketch.Moments) Insight {
	in.Details = map[string]float64{
		"skewness": m.Skewness(),
		"kurtosis": m.Kurtosis(),
	}
	switch in.Metric {
	case "normscore":
		in.Raw = m.NormalityScore()
		in.Score = in.Raw
	case "jarquebera":
		in.Raw = m.JarqueBera()
		// Ranking key must be higher = more insight; for raw JB the
		// insight is *normality*, so invert.
		in.Score = m.NormalityScore()
	}
	return in
}

func (c *normalityClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	return normalityInsight(in, stats.NewMoments(cols.num[0].Values())), nil
}

func (c *normalityClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	in, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	return normalityInsight(in, &ps.num[0].Moments), nil
}
