package bench

import (
	"fmt"
	"math"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// fixedClass is a unary class whose candidate i scores exact[i] on the
// frame and approx[i] on the profile; NaN makes a path fail.
type fixedClass struct {
	metric        string
	exact, approx []float64
}

func (c *fixedClass) Name() string          { return "fixed" }
func (c *fixedClass) Description() string   { return "fixed scores" }
func (c *fixedClass) Arity() int            { return 1 }
func (c *fixedClass) Metrics() []string     { return []string{c.metric} }
func (c *fixedClass) VisKind() core.VisKind { return core.VisHistogram }

func (c *fixedClass) Candidates(*frame.Frame) [][]string {
	out := make([][]string, len(c.exact))
	for i := range out {
		out[i] = []string{fmt.Sprint(i)}
	}
	return out
}

func (c *fixedClass) pick(scores []float64, attrs []string) (core.Insight, error) {
	var i int
	fmt.Sscan(attrs[0], &i)
	if math.IsNaN(scores[i]) {
		return core.Insight{}, &core.UndefinedError{Class: "fixed", Attrs: attrs}
	}
	return core.Insight{Score: scores[i]}, nil
}

func (c *fixedClass) Score(_ *frame.Frame, attrs []string, _ string) (core.Insight, error) {
	return c.pick(c.exact, attrs)
}

func (c *fixedClass) ScoreApprox(_ *sketch.DatasetProfile, attrs []string, _ string) (core.Insight, error) {
	return c.pick(c.approx, attrs)
}

// TestCompareScorersValue covers val%: absolute error for a metric in
// [0, 1], relative error otherwise, the cap at 1, and a candidate
// defined on one path or neither.
func TestCompareScorersValue(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name, metric  string
		exact, approx []float64
		want          float64
	}{
		{"identical", "pearson", []float64{0.1, 0.5, 0.9}, []float64{0.1, 0.5, 0.9}, 100},
		{"absolute", "pearson", []float64{0.5, 0.2}, []float64{0.7, 0.2}, 90},
		{"relative", "meandist", []float64{4, 2}, []float64{5, 2}, 87.5},
		{"capped", "meandist", []float64{1}, []float64{9}, 0},
		{"zero exact", "meandist", []float64{0, 0}, []float64{0, 3}, 50},
		{"one path", "pearson", []float64{0.5, nan, 0.3}, []float64{0.5, 0.4, nan}, 100.0 / 3},
		{"neither path", "pearson", []float64{0.5, nan}, []float64{0.3, nan}, 80},
		{"none defined", "pearson", []float64{nan}, []float64{nan}, nan},
	} {
		cmp, err := CompareScorers(nil, nil, &fixedClass{tc.metric, tc.exact, tc.approx}, "")
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(tc.want) != math.IsNaN(cmp.Value) || math.Abs(cmp.Value-tc.want) > 1e-9 {
			t.Errorf("%s: val%% = %v, want %v", tc.name, cmp.Value, tc.want)
		}
	}
}

func TestCompareScorersPrecisionAndStride(t *testing.T) {
	// Candidate i scores i exactly and 13−i approximately: the exact
	// top 10 is 3..12, the approximate one 1..10, so they share 8.
	var exact, approx []float64
	for i := 1; i <= 12; i++ {
		exact, approx = append(exact, float64(i)), append(approx, float64(13-i))
	}
	cmp, err := CompareScorers(nil, nil, &fixedClass{"pearson", exact, approx}, "")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.PAtK != 0.8 || cmp.Candidates != 12 || cmp.Compared != 12 {
		t.Errorf("P@10 = %v over %d of %d candidates, want 0.8 over 12 of 12", cmp.PAtK, cmp.Compared, cmp.Candidates)
	}
	// Fewer than k defined: k shrinks to the exact ones.
	cmp, _ = CompareScorers(nil, nil, &fixedClass{"pearson", []float64{0.9, math.NaN()}, []float64{0.1, 0.8}}, "")
	if cmp.PAtK != 1 {
		t.Errorf("P@k over one exact candidate = %v, want 1", cmp.PAtK)
	}
	// 1 030 candidates compare every third one: 344 of them.
	many := make([]float64, 1030)
	cmp, _ = CompareScorers(nil, nil, &fixedClass{"pearson", many, many}, "")
	if cmp.Compared != 344 || cmp.Candidates != 1030 {
		t.Errorf("stride compared %d of %d, want 344 of 1030", cmp.Compared, cmp.Candidates)
	}
	if _, err := CompareScorers(nil, nil, &fixedClass{"pearson", many, many}, "bogus"); err == nil {
		t.Error("an unknown metric must be refused")
	}
}

// scaledApprox is a class whose ScoreApprox is off by a factor.
type scaledApprox struct {
	core.Class
	factor float64
}

func (c scaledApprox) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (core.Insight, error) {
	in, err := c.Class.ScoreApprox(p, attrs, metric)
	in.Score *= c.factor
	return in, err
}

// TestCompareScorersCatchesScaledApprox is the comparator's mutation
// check: heavytails reads its kurtosis from exact moments on both
// paths, so its val% is 100 until its ScoreApprox is scaled by 0.9,
// which puts every candidate 10 % off and val% at 90, below 90.5.
func TestCompareScorersCatchesScaledApprox(t *testing.T) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 4000, NumericCols: 12, Seed: 1})
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1})
	heavy := core.NewHeavyTailsClass()
	cmp, err := CompareScorers(f, p, heavy, "")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Value < 99.9 {
		t.Fatalf("heavytails val%% = %v, want ≥ 99.9", cmp.Value)
	}
	cmp, err = CompareScorers(f, p, scaledApprox{heavy, 0.9}, "")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Value >= 90.5 {
		t.Errorf("heavytails with ScoreApprox × 0.9: val%% = %v, want < 90.5", cmp.Value)
	}
}
