package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// sampled is a copy of the cells of the frame a profile was built or
// extended from, read at the profile's sampled rows: the row sample as
// the formulas below read it, made without the profile's gathers or its
// sample frame. A numeric column's copy and its ordered view are made
// once.
type sampled struct {
	f       *frame.Frame
	rows    []int
	ordered map[string]*stats.Ordered
}

func (s sampled) values(name string) []float64 { return s.order(name).Values }

func (s sampled) order(name string) *stats.Ordered {
	if v, ok := s.ordered[name]; ok {
		return v
	}
	col, _ := s.f.Numeric(name)
	out := make([]float64, len(s.rows))
	for k, i := range s.rows {
		out[k] = col.At(i)
	}
	s.ordered[name] = stats.NewOrdered(out)
	return s.ordered[name]
}

func (s sampled) codes(name string) []int32 {
	col, _ := s.f.Categorical(name)
	out := make([]int32, len(s.rows))
	for k, i := range s.rows {
		out[k] = col.CodeAt(i)
	}
	return out
}

// oracleApprox is the approximate score the five classes with no sketch
// for a statistic gave when each wrote its formula out over the row
// sample by hand, reading s for the sample, and the score outliers and
// multimodality gave of a per-column value sample, given s's cells of
// the column instead. Monotonic's Spearman still reads the rank
// projections when both columns have them.
func oracleApprox(c Class, p *sketch.DatasetProfile, s sampled, attrs []string, metric string) (Insight, error) {
	switch c := c.(type) {
	case *monotonicClass:
		in, ps, err := c.onProfile(p, attrs, metric)
		if err != nil {
			return Insight{}, err
		}
		x, y := ps.num[0], ps.num[1]
		switch {
		case in.Metric == "kendall":
			return rankInsight(in, stats.KendallTauB(s.values(attrs[0]), s.values(attrs[1]))), nil
		case x.RankPlanes != nil && y.RankPlanes != nil:
			return rankInsight(in, x.RankPlanes.EstimateCorrelation(y.RankPlanes)), nil
		default:
			return rankInsight(in, stats.SpearmanSums(s.order(attrs[0]), s.order(attrs[1])).Rho()), nil
		}
	case *dependenceClass:
		in, ps, err := c.onProfile(p, attrs, metric)
		if err != nil {
			return Insight{}, err
		}
		cp := ps.cat[1]
		eta2 := stats.CorrelationRatio(s.codes(attrs[1]), s.values(attrs[0]), cp.Cardinality)
		return scored(in, eta2, map[string]float64{"groups": float64(cp.Cardinality)}), nil
	case *catAssocClass:
		in, ps, err := c.onProfile(p, attrs, metric)
		if err != nil {
			return Insight{}, err
		}
		a, b := ps.cat[0], ps.cat[1]
		ct := stats.NewContingency(s.codes(attrs[0]), s.codes(attrs[1]), a.Cardinality, b.Cardinality)
		if in.Metric == "mutualinfo" {
			return scored(in, ct.MutualInformation(), nil), nil
		}
		return scored(in, ct.CramersV(), nil), nil
	case *segmentationClass:
		in, ps, err := c.onProfile(p, attrs, metric)
		if err != nil {
			return Insight{}, err
		}
		xs, ys, z := s.order(attrs[0]), s.order(attrs[1]), ps.cat[2]
		zc := s.codes(attrs[2])
		sil, _ := stats.CertifiedSilhouette(xs, ys, zc, z.Cardinality, c.step(min(len(xs.Values), len(ys.Values), len(zc))))
		if math.IsNaN(sil) {
			return Insight{}, errUndefined(in.Class, in.Attrs)
		}
		score := sil
		if score < 0 {
			score = 0
		}
		in.Score, in.Raw, in.Details = score, sil, map[string]float64{"groups": float64(z.Cardinality)}
		return in, nil
	case *nonlinearClass:
		in, _, err := c.onProfile(p, attrs, metric)
		if err != nil {
			return Insight{}, err
		}
		xs, ys := s.values(attrs[0]), s.values(attrs[1])
		var raw float64
		switch in.Metric {
		case "normmi":
			raw = stats.NormalizedBinnedMI(xs, ys, c.bins)
		case "mi":
			raw = stats.BinnedMutualInformation(xs, ys, c.bins)
		}
		return scored(in, raw, map[string]float64{"bins": float64(c.bins)}), nil
	case *outliersClass:
		in, ps, err := c.onProfile(p, attrs, metric)
		if err != nil {
			return Insight{}, err
		}
		np := ps.num[0]
		qs := np.Quantiles.Quantiles([]float64{0.25, 0.5, 0.75})
		var score float64
		switch in.Metric {
		case "zscore", "mad":
			score, _ = stats.OutlierScore(s.values(attrs[0]), c.detectorFor(in.Metric))
		default:
			score = np.OutlierScoreAt(s.values(attrs[0]), qs[0], qs[2], 0)
		}
		return scored(in, score, map[string]float64{
			"q1":     qs[0],
			"median": qs[1],
			"q3":     qs[2],
			"min":    np.Moments.Min(),
			"max":    np.Moments.Max(),
		}), nil
	case *multimodalityClass:
		in, _, err := c.onProfile(p, attrs, metric)
		if err != nil {
			return Insight{}, err
		}
		sample := slices.DeleteFunc(slices.Clone(s.values(attrs[0])), math.IsNaN)
		slices.Sort(sample)
		return modesInsight(in, sample), nil
	}
	panic("no oracle for class " + c.Name())
}

// sampleClasses are the classes whose approximate score reads the row
// sample: the five whose approximate score is their exact one on it,
// and the two that read one column of it.
func sampleClasses() []Class {
	return []Class{
		NewMonotonicClass(),
		NewDependenceClass(0),
		NewCategoricalAssociationClass(0),
		NewSegmentationClass(0, 0),
		NewNonlinearDependenceClass(0),
		NewOutliersClass(nil),
		NewMultimodalityClass(),
	}
}

// checkSampleScores holds ScoreApprox of every candidate and metric of
// the sample classes to the oracles, insight and error text alike, on a
// profile of f; it returns how many it compared.
func checkSampleScores(t *testing.T, label string, f *frame.Frame, p *sketch.DatasetProfile) int {
	t.Helper()
	s := sampled{f, p.RowSample.Indexes(), map[string]*stats.Ordered{}}
	text := func(in Insight, err error) string {
		if err != nil {
			return "error " + err.Error()
		}
		return fmt.Sprintf("%+v", plainInsight(in))
	}
	n := 0
	for _, c := range sampleClasses() {
		for _, attrs := range c.Candidates(f) {
			for _, metric := range c.Metrics() {
				got := text(c.ScoreApprox(p, attrs, metric))
				if want := text(oracleApprox(c, p, s, attrs, metric)); got != want {
					t.Fatalf("%s: %s %v %s:\n got %s\nwant %s", label, c.Name(), attrs, metric, got, want)
				}
				n++
			}
		}
	}
	return n
}

// appendBatch is rows [start, end) of src as a batch, every seventh cell
// missing.
func appendBatch(src *frame.Frame, start, end int) frame.RowBatch {
	var b frame.RowBatch
	for i := start; i < end; i++ {
		rec := make([]string, src.Cols())
		for j := range rec {
			if (i+j)%7 != 0 {
				rec[j] = src.Column(j).StringAt(i)
			}
		}
		b.Records = append(b.Records, rec)
	}
	return b
}

// TestSampleScoresMatchOracles: the sample classes' approximate scores,
// read from the profile's sample frame, are the formulas they replaced,
// bit for bit: on each demo dataset's built profile, and
// at the end of an Extend chain nobody read along the way, whose batches
// carry missing cells, so every gather is slotted and first read by the
// scores. The six cases run in parallel.
func TestSampleScoresMatchOracles(t *testing.T) {
	for _, ds := range []struct {
		name     string
		f        *frame.Frame
		spearman bool
	}{
		{"oecd", datagen.OECD(0, 42), true},
		{"imdb", datagen.IMDB(0, 42), false},
		{"parkinson", datagen.Parkinson(0, 42), false},
	} {
		cfg := sketch.ProfileConfig{Seed: 42, Spearman: ds.spearman}
		t.Run(ds.name+"/built", func(t *testing.T) {
			t.Parallel()
			n := checkSampleScores(t, "built", ds.f, sketch.BuildProfile(ds.f, cfg))
			t.Logf("%d scores", n)
		})
		t.Run(ds.name+"/extended", func(t *testing.T) {
			t.Parallel()
			base := ds.f.Rows() * 3 / 5
			keep := make([]bool, ds.f.Rows())
			for i := range base {
				keep[i] = true
			}
			f, err := ds.f.FilterRows(keep)
			if err != nil {
				t.Fatal(err)
			}
			p := sketch.BuildProfile(f, cfg)
			for at, step := base, (ds.f.Rows()-base+3)/4; at < ds.f.Rows(); at += step {
				if f, err = f.AppendRows(appendBatch(ds.f, at, min(at+step, ds.f.Rows())), nil); err != nil {
					t.Fatal(err)
				}
				if p, err = p.Extend(f); err != nil {
					t.Fatal(err)
				}
			}
			n := checkSampleScores(t, "extended", f, p)
			t.Logf("%d scores", n)
		})
	}
}
