package bench

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// maxCompared caps the candidates CompareScorers scores both ways: a
// class with more is compared on a deterministic stride of them.
const maxCompared = 512

// topK is the depth of the top-k agreement CompareScorers reports.
const topK = 10

// Comparison is how one class's approximate scores (ScoreApprox over
// the sketch profile) agree with its exact scores (Score over the
// frame): the two scorers the engine serves.
type Comparison struct {
	Class, Metric string
	// Candidates counts the class's candidates on the frame; Compared
	// counts those scored both ways (all of them, or every stride-th
	// when there are more than maxCompared).
	Candidates, Compared int
	// Value is val%: 100·(1 − mean error) over the compared candidates
	// defined on either path, NaN when there are none. A candidate's
	// error is |approx − exact| for a metric of unitRange and the
	// relative error |approx − exact| / |exact| for any other, capped at
	// 1; a candidate defined on one path only counts 1.
	Value float64
	// PAtK is the share of the exact top k (k = topK, or fewer defined
	// candidates) that the approximate top k also holds; NaN when no
	// candidate has an exact score.
	PAtK float64
}

// unitRange holds the metrics whose scores lie in [0, 1], where an
// absolute error is already on the metric's scale.
var unitRange = map[string]bool{
	"pearson": true, "r2": true, "spearman": true, "kendall": true,
	"eta2": true, "cramersv": true, "relfreq": true, "dip": true,
	"silhouette": true, "normentropy": true, "normmi": true, "normscore": true,
}

// CompareScorers scores the class's candidates on f with its own Score
// and on p with its own ScoreApprox, under metric ("" = the class's
// default), and reports their agreement. A scorer's error or a NaN
// score leaves the candidate undefined on that path, as the engine
// skips it.
func CompareScorers(f *frame.Frame, p *sketch.DatasetProfile, c core.Class, metric string) (Comparison, error) {
	if metric == "" {
		metric = c.Metrics()[0]
	}
	if !slices.Contains(c.Metrics(), metric) {
		return Comparison{}, fmt.Errorf("bench: class %q has no metric %q", c.Name(), metric)
	}
	cands := c.Candidates(f)
	cmp := Comparison{Class: c.Name(), Metric: metric, Candidates: len(cands)}
	step := (len(cands) + maxCompared - 1) / maxCompared
	var exact, approx []float64
	for i := 0; i < len(cands); i += step {
		exact = append(exact, scoreOf(c.Score(f, cands[i], metric)))
		approx = append(approx, scoreOf(c.ScoreApprox(p, cands[i], metric)))
	}
	cmp.Compared = len(exact)

	var sum float64
	n := 0
	for i, x := range exact {
		a := approx[i]
		switch {
		case math.IsNaN(x) && math.IsNaN(a):
			continue
		case math.IsNaN(x) || math.IsNaN(a):
			sum++
		case unitRange[metric] || a == x:
			sum += math.Min(1, math.Abs(a-x))
		default:
			sum += math.Min(1, math.Abs(a-x)/math.Abs(x))
		}
		n++
	}
	cmp.Value = 100 * (1 - sum/float64(n))

	top := func(scores []float64) []int {
		var idx []int
		for i, s := range scores {
			if !math.IsNaN(s) {
				idx = append(idx, i)
			}
		}
		sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
		return idx[:min(topK, len(idx))]
	}
	exactTop, approxTop := top(exact), top(approx)
	hits := 0
	for _, i := range approxTop {
		if slices.Contains(exactTop, i) {
			hits++
		}
	}
	cmp.PAtK = float64(hits) / float64(len(exactTop))
	return cmp, nil
}

// scoreOf is a scorer's score, NaN when it returned an error.
func scoreOf(in core.Insight, err error) float64 {
	if err != nil {
		return math.NaN()
	}
	return in.Score
}

// RunE3Accuracy checks the paper's ">90% accuracy" claim on the
// scorers the engine serves: CompareScorers for every built-in class,
// nonlinear and normality, on a Scalable frame of rows × d for each d
// of dims and on the oecd, parkinson and imdb demo datasets, each
// profiled as foresightd profiles it.
func RunE3Accuracy(w io.Writer, outDir string, rows int, dims []int, seed int64) error {
	type dataset struct {
		name string
		f    *frame.Frame
	}
	var sets []dataset
	for _, d := range dims {
		sets = append(sets, dataset{fmt.Sprintf("scalable d=%d", d), datagen.Scalable(datagen.ScalableConfig{
			Rows: rows, NumericCols: d, CatCols: 3, Seed: seed + int64(d),
		})})
	}
	sets = append(sets,
		dataset{"oecd", datagen.OECD(0, seed)},
		dataset{"parkinson", datagen.Parkinson(0, seed)},
		dataset{"imdb", datagen.IMDB(0, seed+1)})
	classes := append(core.BuiltinClasses(), core.NewNonlinearDependenceClass(0), core.NewNormalityClass())

	t := NewTable(fmt.Sprintf("E3: approximate vs exact scores per class (scalable n=%d)", rows),
		"dataset", "class", "metric", "candidates", "compared", "val%", fmt.Sprintf("P@%d", topK))
	for _, ds := range sets {
		p := sketch.BuildProfile(ds.f, sketch.ProfileConfig{Seed: seed, Spearman: true})
		for _, c := range classes {
			cmp, err := CompareScorers(ds.f, p, c, "")
			if err != nil {
				return err
			}
			switch {
			case cmp.Candidates == 0:
				t.AddRow(ds.name, cmp.Class, cmp.Metric, 0, 0, "no candidates", "no candidates")
			case math.IsNaN(cmp.Value):
				t.AddRow(ds.name, cmp.Class, cmp.Metric, cmp.Candidates, cmp.Compared, "undefined", "undefined")
			default:
				t.AddRow(ds.name, cmp.Class, cmp.Metric, cmp.Candidates, cmp.Compared, cmp.Value, cmp.PAtK)
			}
		}
	}
	t.Print(w)
	fmt.Fprintf(w, "\"val%%\" = 100·(1 − mean |approx − exact|), the error relative to |exact| for a metric not bounded by [0, 1]; \"P@%d\" = share of the exact top %d the approximate top %d holds; at most %d candidates a class, by stride.\n",
		topK, topK, topK, maxCompared)
	return t.WriteTSV(outDir, "e3_accuracy")
}
