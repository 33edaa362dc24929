package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// ExactStore is the exact-computation counterpart of the sketch
// profile: everything an exact system must precompute to answer the
// same interactive insight queries (per-column statistics plus the
// all-pairs Pearson and Spearman matrices). It is the baseline that
// E4 times against sketch preprocessing.
type ExactStore struct {
	Moments   []stats.Moments
	Quantiles [][]float64 // q01,q25,q50,q75,q99 per column
	Outlier   []float64
	Dip       []float64
	Pearson   [][]float64
	Spearman  [][]float64
	Names     []string
}

// BuildExactStore computes the exact store single-threaded. The
// all-pairs phase standardizes each column once, then takes O(d²n/2)
// dot products — the strongest straightforward exact baseline.
// withSpearman additionally rank-transforms every column and computes
// the exact all-pairs Spearman matrix; E4 compares Pearson-only
// pipelines on both sides because the paper's preprocessing list does
// not include rank sketches.
func BuildExactStore(f *frame.Frame, withSpearman bool) *ExactStore {
	numeric := f.NumericColumns()
	d := len(numeric)
	st := &ExactStore{
		Moments:   make([]stats.Moments, d),
		Quantiles: make([][]float64, d),
		Outlier:   make([]float64, d),
		Dip:       make([]float64, d),
		Names:     make([]string, d),
	}
	standardized := make([][]float64, d)
	rankStd := make([][]float64, d)
	qs := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	for i, nc := range numeric {
		vals := nc.Values()
		st.Names[i] = nc.Name()
		st.Moments[i].AddAll(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted) // NaNs sort to the front/end; quantile fn handles
		clean := sorted
		for len(clean) > 0 && math.IsNaN(clean[len(clean)-1]) {
			clean = clean[:len(clean)-1]
		}
		st.Quantiles[i] = make([]float64, len(qs))
		for j, q := range qs {
			st.Quantiles[i][j] = stats.QuantileSorted(clean, q)
		}
		st.Outlier[i], _ = stats.OutlierScore(vals, stats.IQRDetector{})
		st.Dip[i] = stats.Dip(vals)
		standardized[i] = standardize(vals, st.Moments[i].Mean, st.Moments[i].StdDev())
		if withSpearman {
			ranks := stats.Ranks(vals)
			rm := stats.Mean(ranks)
			rs := stats.StdDev(ranks)
			rankStd[i] = standardize(ranks, rm, rs)
		}
	}
	st.Pearson = allPairsDot(standardized)
	if withSpearman {
		st.Spearman = allPairsDot(rankStd)
	}
	return st
}

// standardize returns (x−µ)/σ with NaN→0 (mean imputation), matching
// the sketch path's treatment of missing cells.
func standardize(vals []float64, mean, sd float64) []float64 {
	out := make([]float64, len(vals))
	if sd == 0 || math.IsNaN(sd) {
		return out
	}
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		out[i] = (v - mean) / sd
	}
	return out
}

// allPairsDot computes the d×d matrix of mean pairwise products of
// pre-standardized columns: the Pearson matrix in O(d²n/2).
func allPairsDot(cols [][]float64) [][]float64 {
	d := len(cols)
	m := make([][]float64, d)
	for i := range m {
		m[i] = make([]float64, d)
		m[i][i] = 1
	}
	for i := 0; i < d; i++ {
		a := cols[i]
		for j := i + 1; j < d; j++ {
			b := cols[j]
			sum := 0.0
			for r := range a {
				sum += a[r] * b[r]
			}
			rho := sum / float64(len(a))
			m[i][j], m[j][i] = rho, rho
		}
	}
	return m
}

// sketchAllPairs estimates the full correlation matrix from
// hyperplane bit vectors in O(d²k/64) word operations.
func sketchAllPairs(profiles []*sketch.NumericProfile, useRank bool) [][]float64 {
	d := len(profiles)
	m := make([][]float64, d)
	for i := range m {
		m[i] = make([]float64, d)
		m[i][i] = 1
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			var rho float64
			if useRank {
				rho = profiles[i].RankPlanes.EstimateCorrelation(profiles[j].RankPlanes)
			} else {
				rho = profiles[i].Planes.EstimateCorrelation(profiles[j].Planes)
			}
			m[i][j], m[j][i] = rho, rho
		}
	}
	return m
}

func sortedNumericProfiles(f *frame.Frame, p *sketch.DatasetProfile) []*sketch.NumericProfile {
	numeric := f.NumericColumns()
	out := make([]*sketch.NumericProfile, len(numeric))
	for i, nc := range numeric {
		out[i] = p.Numeric[nc.Name()]
	}
	return out
}

// E3Config sizes the accuracy experiment.
type E3Config struct {
	Rows int
	Dims []int
	K    int // hyperplane directions; 0 = paper's O(log²n)
	Seed int64
}

// RunE3Accuracy measures sketch-estimate accuracy against exact
// computation (the paper's ">90% accuracy" claim): value accuracy
// (100·(1−mean abs error, normalized)) for each estimator, plus
// precision@20 of the sketch-ranked strongest correlations.
func RunE3Accuracy(w io.Writer, outDir string, cfg E3Config) error {
	if cfg.Rows <= 0 {
		cfg.Rows = 20000
	}
	if len(cfg.Dims) == 0 {
		cfg.Dims = []int{25, 50}
	}
	t := NewTable(fmt.Sprintf("E3: sketch accuracy vs exact (n=%d, k=%s)", cfg.Rows, kLabel(cfg.K, cfg.Rows)),
		"d", "pearson val%", "pearson P@20", "spearman val%", "quantile%", "heavyhit%", "entropy%", "mean%")
	for _, d := range cfg.Dims {
		f := datagen.Scalable(datagen.ScalableConfig{
			Rows: cfg.Rows, NumericCols: d, CatCols: 3, Seed: cfg.Seed + int64(d),
		})
		p := sketch.BuildProfile(f, sketch.ProfileConfig{K: cfg.K, Seed: cfg.Seed, Spearman: true})
		exact := BuildExactStore(f, true)
		profiles := sortedNumericProfiles(f, p)

		est := sketchAllPairs(profiles, false)
		estRank := sketchAllPairs(profiles, true)
		pearsonAcc := matrixValueAccuracy(exact.Pearson, est)
		spearAcc := matrixValueAccuracy(exact.Spearman, estRank)
		p20 := precisionAtK(exact.Pearson, est, 20)

		// Quantiles: mean rank accuracy of KLL median/quartiles.
		qAcc := quantileAccuracy(f, p)
		hhAcc, entAcc := categoricalAccuracy(f, p)
		mean := (pearsonAcc + spearAcc + qAcc + hhAcc + entAcc) / 5
		t.AddRow(d, pearsonAcc, p20*100, spearAcc, qAcc, hhAcc, entAcc, mean)
	}
	t.Print(w)
	fmt.Fprintln(w, `"val%" = 100·(1 − mean |estimate − exact|); "P@20" = overlap of sketch vs exact top-20 pairs.`)
	return t.WriteTSV(outDir, "e3_accuracy")
}

func kLabel(k, rows int) string {
	if k <= 0 {
		return fmt.Sprintf("log²n=%d", sketch.KForRows(rows))
	}
	return fmt.Sprintf("%d", k)
}

// matrixValueAccuracy returns 100·(1 − mean |a−b|) over off-diagonal
// cells (correlations live in [−1,1], so the MAE is already
// normalized).
func matrixValueAccuracy(exact, est [][]float64) float64 {
	var sum float64
	var n int
	for i := range exact {
		for j := i + 1; j < len(exact[i]); j++ {
			if math.IsNaN(exact[i][j]) || math.IsNaN(est[i][j]) {
				continue
			}
			sum += math.Abs(exact[i][j] - est[i][j])
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * (1 - sum/float64(n))
}

// precisionAtK returns |top-k by exact ∩ top-k by estimate| / k over
// pairs ranked by |ρ|.
func precisionAtK(exact, est [][]float64, k int) float64 {
	type pair struct {
		i, j int
		v    float64
	}
	rank := func(m [][]float64) []pair {
		var ps []pair
		for i := range m {
			for j := i + 1; j < len(m[i]); j++ {
				if !math.IsNaN(m[i][j]) {
					ps = append(ps, pair{i, j, math.Abs(m[i][j])})
				}
			}
		}
		sort.Slice(ps, func(a, b int) bool {
			if ps[a].v != ps[b].v {
				return ps[a].v > ps[b].v
			}
			return ps[a].i*10000+ps[a].j < ps[b].i*10000+ps[b].j
		})
		return ps
	}
	pe, pa := rank(exact), rank(est)
	if k > len(pe) {
		k = len(pe)
	}
	if k == 0 {
		return math.NaN()
	}
	set := map[[2]int]bool{}
	for _, p := range pe[:k] {
		set[[2]int{p.i, p.j}] = true
	}
	hit := 0
	for _, p := range pa[:k] {
		if set[[2]int{p.i, p.j}] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// quantileAccuracy returns the mean rank accuracy (100·(1−rank
// error)) of KLL quartile estimates across numeric columns.
func quantileAccuracy(f *frame.Frame, p *sketch.DatasetProfile) float64 {
	qs := []float64{0.25, 0.5, 0.75}
	var sum float64
	var n int
	for _, nc := range f.NumericColumns() {
		np := p.Numeric[nc.Name()]
		ecdf := stats.NewECDF(nc.Values())
		est := np.Quantiles.Quantiles(qs)
		for i, q := range qs {
			if math.IsNaN(est[i]) {
				continue
			}
			sum += math.Abs(ecdf.At(est[i]) - q)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * (1 - sum/float64(n))
}

// categoricalAccuracy returns (RelFreq top-3 accuracy, entropy
// accuracy) across categorical columns, both as 100·(1−normalized
// error).
func categoricalAccuracy(f *frame.Frame, p *sketch.DatasetProfile) (float64, float64) {
	var hhSum, entSum float64
	var n int
	for _, cc := range f.CategoricalColumns() {
		cp := p.Categorical[cc.Name()]
		counts := cc.Counts()
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			continue
		}
		sorted := append([]int(nil), counts...)
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		exactRF := 0.0
		for i := 0; i < 3 && i < len(sorted); i++ {
			exactRF += float64(sorted[i])
		}
		exactRF /= float64(total)
		hhSum += math.Abs(cp.Heavy.RelFreqTopK(3) - exactRF)
		exactH := stats.Entropy(counts)
		estH := cp.EntropyEstimate()
		den := math.Max(exactH, 1e-9)
		entSum += math.Min(1, math.Abs(estH-exactH)/den)
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	return 100 * (1 - hhSum/float64(n)), 100 * (1 - entSum/float64(n))
}

// E4Config sizes the preprocessing-speedup experiment.
type E4Config struct {
	Rows int
	Dims []int
	K    int
	Seed int64
}

// RunE4Preprocess times exact preprocessing (BuildExactStore) against
// sketch preprocessing (BuildProfile + all-pairs estimates), both
// single-threaded as in the paper's measurement, and reports the
// speedup (the paper claims 3×−4×).
func RunE4Preprocess(w io.Writer, outDir string, cfg E4Config) error {
	if cfg.Rows <= 0 {
		cfg.Rows = 50000
	}
	if len(cfg.Dims) == 0 {
		cfg.Dims = []int{50, 100, 200}
	}
	if cfg.K <= 0 {
		cfg.K = 64
	}
	t := NewTable(fmt.Sprintf("E4: preprocessing time, exact vs sketch (n=%d, k=%d, single-threaded)", cfg.Rows, cfg.K),
		"d", "exact", "sketch", "speedup")
	for _, d := range cfg.Dims {
		f := datagen.Scalable(datagen.ScalableConfig{
			Rows: cfg.Rows, NumericCols: d, CatCols: 3, Seed: cfg.Seed + int64(d),
		})
		var exactDur, sketchDur time.Duration
		exactDur = timeIt(func() { _ = BuildExactStore(f, false) })
		sketchDur = timeIt(func() {
			p := sketch.BuildProfile(f, sketch.ProfileConfig{K: cfg.K, Seed: cfg.Seed})
			profiles := sortedNumericProfiles(f, p)
			_ = sketchAllPairs(profiles, false)
		})
		t.AddRow(d, exactDur, sketchDur, float64(exactDur)/float64(sketchDur))
	}
	t.Print(w)
	return t.WriteTSV(outDir, "e4_preprocess")
}

// E5Config sizes the query-latency experiment.
type E5Config struct {
	Rows, Dims int
	K          int
	Seed       int64
}

// RunE5QueryLatency measures interactive-exploration latency over the
// preprocessed store: full carousels, fixed-attribute queries,
// range-filtered queries, neighborhood queries and the overview, at
// the paper's target scale ("data items of the order of 100K and
// attributes that number in the hundreds").
func RunE5QueryLatency(w io.Writer, outDir string, cfg E5Config) error {
	if cfg.Rows <= 0 {
		cfg.Rows = 100000
	}
	if cfg.Dims <= 0 {
		cfg.Dims = 200
	}
	if cfg.K <= 0 {
		cfg.K = 64
	}
	f := datagen.Scalable(datagen.ScalableConfig{
		Rows: cfg.Rows, NumericCols: cfg.Dims, CatCols: 3, Seed: cfg.Seed,
	})
	var p *sketch.DatasetProfile
	prepDur := timeIt(func() {
		p = sketch.BuildProfile(f, sketch.ProfileConfig{K: cfg.K, Seed: cfg.Seed, Spearman: true})
	})
	engine, err := query.NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		return err
	}
	fixedAttr := f.NumericColumns()[0].Name()

	t := NewTable(fmt.Sprintf("E5: approximate query latency (n=%d, d=%d, k=%d; preprocessing took %v)",
		cfg.Rows, cfg.Dims+3, cfg.K, prepDur.Round(time.Millisecond)),
		"query", "latency", "insights")
	run := func(name string, q query.Query) error {
		var res []query.Result
		var qerr error
		dur := timeIt(func() { res, qerr = engine.ExecuteContext(context.Background(), q) })
		if qerr != nil {
			return qerr
		}
		total := 0
		for _, r := range res {
			total += len(r.Insights)
		}
		t.AddRow(name, dur, total)
		return nil
	}
	if err := run("top-5 all classes (carousels)", query.Query{K: 5, Approx: true}); err != nil {
		return err
	}
	if err := run("top-10 correlations", query.Query{Classes: []string{"linear"}, K: 10, Approx: true}); err != nil {
		return err
	}
	if err := run("correlates of one attribute", query.Query{Classes: []string{"linear"}, Fixed: []string{fixedAttr}, K: 10, Approx: true}); err != nil {
		return err
	}
	if err := run("range filter rho in [0.3, 0.6]", query.Query{Classes: []string{"linear"}, MinScore: 0.3, MaxScore: 0.6, Approx: true}); err != nil {
		return err
	}
	if err := run("top-10 monotonic (rank sketch)", query.Query{Classes: []string{"monotonic"}, K: 10, Approx: true}); err != nil {
		return err
	}
	// Neighborhood of the top correlation.
	top, err := engine.ExecuteContext(context.Background(), query.Query{Classes: []string{"linear"}, K: 1, Approx: true})
	if err != nil {
		return err
	}
	if len(top) > 0 && len(top[0].Insights) > 0 {
		var nbrs []core.Insight
		dur := timeIt(func() {
			nbrs, err = engine.NeighborhoodContext(context.Background(), top[0].Insights[0], []string{"linear", "monotonic"}, 10, true)
		})
		if err != nil {
			return err
		}
		t.AddRow("neighborhood (2 classes)", dur, len(nbrs))
	}
	var ovDur time.Duration
	ovDur = timeIt(func() { _, err = engine.OverviewContext(context.Background(), "linear", "", true) })
	if err != nil {
		return err
	}
	t.AddRow("overview (full heat map)", ovDur, cfg.Dims*(cfg.Dims-1)/2)
	t.Print(w)
	return t.WriteTSV(outDir, "e5_latency")
}

// E6Config sizes the all-pairs complexity experiment.
type E6Config struct {
	Dims    int
	RowsSet []int
	K       int
	Seed    int64
}

// RunE6AllPairs validates the §2.2 complexity claim: computing every
// pairwise correlation takes O(|B|²n) exactly but O(|B|²k) from
// sketches — constant in n once preprocessing is done.
func RunE6AllPairs(w io.Writer, outDir string, cfg E6Config) error {
	if cfg.Dims <= 0 {
		cfg.Dims = 100
	}
	if len(cfg.RowsSet) == 0 {
		cfg.RowsSet = []int{10000, 25000, 50000, 100000}
	}
	if cfg.K <= 0 {
		cfg.K = 64
	}
	t := NewTable(fmt.Sprintf("E6: all-pairs correlation time (d=%d, k=%d)", cfg.Dims, cfg.K),
		"n", "exact O(d²n)", "sketch O(d²k)", "ratio")
	for _, n := range cfg.RowsSet {
		f := datagen.Scalable(datagen.ScalableConfig{
			Rows: n, NumericCols: cfg.Dims, Seed: cfg.Seed + int64(n),
		})
		// Standardize once (not timed — both sides need preprocessing).
		numeric := f.NumericColumns()
		standardized := make([][]float64, len(numeric))
		for i, nc := range numeric {
			m := stats.NewMoments(nc.Values())
			standardized[i] = standardize(nc.Values(), m.Mean, m.StdDev())
		}
		p := sketch.BuildProfile(f, sketch.ProfileConfig{K: cfg.K, Seed: cfg.Seed})
		profiles := sortedNumericProfiles(f, p)

		exactDur := timeIt(func() { _ = allPairsDot(standardized) })
		sketchDur := timeIt(func() { _ = sketchAllPairs(profiles, false) })
		t.AddRow(n, exactDur, sketchDur, float64(exactDur)/float64(sketchDur))
	}
	t.Print(w)
	fmt.Fprintln(w, "exact time grows linearly with n; sketch time stays flat (independent of n).")
	return t.WriteTSV(outDir, "e6_allpairs")
}
