package stats_test

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/stats"
)

// Every candidate of the classes whose kernels moved onto the ordered
// column views, scored through the registered classes and through the
// pre-rewrite formulas over the oracles, must agree bit for bit — on a
// fresh frame (views sorted from scratch) and on the frame an ingest
// produces (row orders carried forward by AppendRows).

type oracleScore struct {
	raw, score float64
	details    map[string]float64
	undefined  bool
}

func oracleLinear(f *frame.Frame, attrs []string) oracleScore {
	x, y := values(f, attrs[0]), values(f, attrs[1])
	rho, fit := stats.PearsonOracle(x, y), stats.FitLineOracle(x, y)
	return oracleScore{raw: rho, score: math.Abs(rho), details: map[string]float64{
		"rho": rho, "slope": fit.Slope, "intercept": fit.Intercept, "r2": fit.R2,
	}}
}

func oracleMonotonic(f *frame.Frame, attrs []string) oracleScore {
	rho := stats.SpearmanOracle(values(f, attrs[0]), values(f, attrs[1]))
	return oracleScore{raw: rho, score: math.Abs(rho), details: map[string]float64{"rho": rho}}
}

// segmentationPoints is what the segmentation class scores for attrs:
// the strided sample of the (x, y) scatter, standardised, with its codes.
func segmentationPoints(f *frame.Frame, attrs []string) (pts []stats.Point2, codes []int32, levels int) {
	const sampleCap = 512
	x, y := values(f, attrs[0]), values(f, attrs[1])
	z, _ := f.Categorical(attrs[2])
	n := f.Rows()
	step := 1
	if n > sampleCap {
		step = n / sampleCap
	}
	mx, sx := stats.Mean(x), stats.StdDev(x)
	my, sy := stats.Mean(y), stats.StdDev(y)
	if sx == 0 || math.IsNaN(sx) {
		sx = 1
	}
	if sy == 0 || math.IsNaN(sy) {
		sy = 1
	}
	for i := 0; i < n; i += step {
		pts = append(pts, stats.Point2{X: (x[i] - mx) / sx, Y: (y[i] - my) / sy})
		codes = append(codes, z.Codes()[i])
	}
	return pts, codes, z.Cardinality()
}

func oracleSegmentation(f *frame.Frame, attrs []string) oracleScore {
	pts, codes, levels := segmentationPoints(f, attrs)
	sil := stats.GroupSilhouetteOracle(pts, codes, levels)
	if math.IsNaN(sil) {
		return oracleScore{undefined: true}
	}
	return oracleScore{raw: sil, score: math.Max(sil, 0), details: map[string]float64{
		"groups": float64(levels),
	}}
}

func oracleMultimodality(f *frame.Frame, attrs []string) oracleScore {
	vals := values(f, attrs[0])
	col, _ := f.Numeric(attrs[0])
	dip := stats.Dip(vals) // sorts a copy of its own, as every caller did
	return oracleScore{raw: dip, score: dip, details: map[string]float64{
		"pvalue": stats.DipPValueApprox(dip, col.Len()-col.Missing()),
		"peaks":  float64(stats.AutoHistogram(vals, stats.FreedmanDiaconis).PeakCount()),
	}}
}

func oracleOutliers(det stats.OutlierDetector) func(*frame.Frame, []string) oracleScore {
	return func(f *frame.Frame, attrs []string) oracleScore {
		vals := values(f, attrs[0])
		score, outliers := stats.OutlierScore(vals, det)
		box := stats.NewBoxStats(vals, 0)
		return oracleScore{raw: score, score: score, details: map[string]float64{
			"count": float64(len(outliers)), "q1": box.Q1, "median": box.Median,
			"q3": box.Q3, "min": box.Min, "max": box.Max,
		}}
	}
}

func oracleIQR(f *frame.Frame, attrs []string) oracleScore {
	iqr := stats.IQR(values(f, attrs[0]))
	return oracleScore{raw: iqr, score: iqr}
}

func values(f *frame.Frame, name string) []float64 {
	c, err := f.Numeric(name)
	if err != nil {
		panic(err)
	}
	return c.Values()
}

var rewrittenClasses = []struct {
	class  core.Class
	metric string
	oracle func(*frame.Frame, []string) oracleScore
}{
	{core.NewLinearClass(), "pearson", oracleLinear},
	{core.NewMonotonicClass(), "spearman", oracleMonotonic},
	{core.NewSegmentationClass(0, 0), "silhouette", oracleSegmentation},
	{core.NewMultimodalityClass(), "dip", oracleMultimodality},
	{core.NewOutliersClass(nil), "meandist", oracleOutliers(stats.IQRDetector{})},
	{core.NewOutliersClass(nil), "mad", oracleOutliers(stats.MADDetector{})},
	{core.NewOutliersClass(nil), "zscore", oracleOutliers(stats.ZScoreDetector{})},
	{core.NewDispersionClass(), "iqr", oracleIQR},
}

// diffBits scores every stride-th candidate of each rewritten class
// both ways and returns how many it compared.
func diffBits(t *testing.T, f *frame.Frame, stride map[string]int) int {
	t.Helper()
	compared := 0
	for _, rc := range rewrittenClasses {
		step := max(stride[rc.class.Name()], 1)
		cands := rc.class.Candidates(f)
		for ci := 0; ci < len(cands); ci += step {
			attrs := cands[ci]
			want := rc.oracle(f, attrs)
			got, err := rc.class.Score(f, attrs, rc.metric)
			var undefined *core.UndefinedError
			if errors.As(err, &undefined) != want.undefined {
				t.Fatalf("%s%v: err %v, oracle undefined=%v", rc.class.Name(), attrs, err, want.undefined)
			}
			if want.undefined {
				continue
			}
			if err != nil {
				t.Fatalf("%s%v: %v", rc.class.Name(), attrs, err)
			}
			compared++
			check := func(what string, a, b float64) {
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s/%s%v %s: %v (%#x), oracle %v (%#x)", rc.class.Name(), rc.metric, attrs, what,
						a, math.Float64bits(a), b, math.Float64bits(b))
				}
			}
			check("score", got.Score, want.score)
			check("raw", got.Raw, want.raw)
			for name, w := range want.details {
				g, ok := got.Details[name]
				if !ok {
					t.Errorf("%s%v: detail %q missing", rc.class.Name(), attrs, name)
				}
				check("details."+name, g, w)
			}
		}
	}
	return compared
}

// reingest appends rows lo…hi of f to itself as an ingest batch would
// deliver them (rendered cells, missing ones empty).
func reingest(t *testing.T, f *frame.Frame, lo, hi int) *frame.Frame {
	t.Helper()
	batch := frame.RowBatch{Columns: f.Names()}
	for r := lo; r < hi; r++ {
		rec := make([]string, f.Cols())
		for ci := range rec {
			rec[ci] = f.Column(ci).StringAt(r)
		}
		batch.Records = append(batch.Records, rec)
	}
	out, err := f.AppendRows(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRewrittenClassesBitIdenticalToOracles(t *testing.T) {
	datasets := []struct {
		f      *frame.Frame
		stride map[string]int // the oracle silhouette is the slow side
	}{
		// 600 rows: above the segmentation cap, so the strided sample runs.
		{datagen.IMDB(600, 3), nil},
		// Missing cells in most columns; 4 730 segmentation triples.
		{datagen.Parkinson(700, 5), map[string]int{"segmentation": 40}},
	}
	if testing.Short() {
		datasets[0].stride = map[string]int{"segmentation": 10}
	}
	for _, ds := range datasets {
		f := ds.f
		if n := diffBits(t, f, ds.stride); n == 0 {
			t.Fatalf("%s: nothing compared", f.Name())
		}
		// Two ingests: the first carries the orders the scoring above
		// built, the second carries orders nobody has touched since.
		f2 := reingest(t, f, 10, 35)
		f3 := reingest(t, f2, 0, 7)
		after := map[string]int{"segmentation": 10 * max(ds.stride["segmentation"], 1)}
		if n := diffBits(t, f3, after); n == 0 {
			t.Fatalf("%s after ingest: nothing compared", f.Name())
		}
		diffBits(t, f2, after)
	}
}

// TestSilhouetteCloseToHypot bounds what replacing math.Hypot by
// √(dx²+dy²) did to a silhouette: the two distances differ in the last
// place, the score by no more than 1e-12, and a score is defined under
// one exactly when it is under the other.
func TestSilhouetteCloseToHypot(t *testing.T) {
	near := func(what string, got, hypot float64) {
		t.Helper()
		if math.IsNaN(got) != math.IsNaN(hypot) || math.Abs(got-hypot) > 1e-12 {
			t.Errorf("%s: %v, under Hypot %v", what, got, hypot)
		}
	}
	stats.EachSilhouetteCase(near)

	class := core.NewSegmentationClass(0, 0)
	datasets := []struct {
		f      *frame.Frame
		stride int // the oracle costs a Hypot per ordered pair of points
	}{
		{datagen.OECD(0, 42), 1},
		{datagen.IMDB(0, 42), 3},
		{datagen.Parkinson(120, 42), 1}, // every triple, on few rows; then few triples on every row
		{datagen.Parkinson(0, 42), 40},
		{extremeFrame(t), 1},
	}
	for _, ds := range datasets {
		cands := class.Candidates(ds.f) // none on OECD: its one categorical names the row
		if len(cands) == 0 && ds.f.Name() != "oecd" {
			t.Fatalf("%s: no segmentation candidates", ds.f.Name())
		}
		if testing.Short() {
			ds.stride *= 10
		}
		for ci := 0; ci < len(cands); ci += ds.stride {
			attrs := cands[ci]
			pts, codes, levels := segmentationPoints(ds.f, attrs)
			hypot := stats.GroupSilhouetteHypotOracle(pts, codes, levels)
			got := math.NaN()
			if in, err := class.Score(ds.f, attrs, "silhouette"); err == nil {
				got = in.Raw
			} else if !errors.As(err, new(*core.UndefinedError)) {
				t.Fatal(err)
			}
			near(ds.f.Name()+" "+strings.Join(attrs, ","), got, hypot)
		}
	}
}

// extremeFrame holds two blobs a categorical separates, at scales where
// σ is unusable (the moments overflow to NaN or underflow to 0, so the
// points are only centred) and √(dx²+dy²) needs the rescale that Hypot
// did not, and once with an infinite cell, which leaves the score
// undefined under either distance.
func extremeFrame(t *testing.T) *frame.Frame {
	const n = 60
	huge, tiny, inf, unit := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	group := make([]string, n)
	for i := range group {
		g := i % 2
		unit[i] = float64(20*g) + 1.5 + math.Sin(float64(i)) // row 0 is not 0: a huge first value is what turns the moments NaN
		huge[i], tiny[i], inf[i] = unit[i]*1e200, unit[i]*1e-200, unit[i]
		group[i] = []string{"a", "b"}[g]
	}
	inf[7] = math.Inf(1)
	f, err := frame.New("extreme",
		frame.NewNumericColumn("huge", huge), frame.NewNumericColumn("huge2", slices.Clone(huge)),
		frame.NewNumericColumn("tiny", tiny), frame.NewNumericColumn("tiny2", slices.Clone(tiny)),
		frame.NewNumericColumn("inf", inf), frame.NewNumericColumn("unit", unit),
		frame.NewCategoricalColumn("group", group))
	if err != nil {
		t.Fatal(err)
	}
	return f
}
