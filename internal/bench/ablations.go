package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// RunAblationK sweeps the hyperplane/projection width k, reporting
// CompareScorers' linear row at each k: the accuracy/time trade-off
// that motivates the paper's k = O(log²n) sizing (DESIGN.md ablation
// #1).
func RunAblationK(w io.Writer, outDir string, rows, dims int, seed int64) error {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: rows, NumericCols: dims, Seed: seed})
	t := NewTable(fmt.Sprintf("Ablation: hyperplane width k (n=%d, d=%d; log²n=%d)", rows, dims, sketch.KForRows(rows)),
		"k", "build time", "pearson val%", fmt.Sprintf("P@%d", topK), "bits/column")
	for _, k := range []int{16, 32, 64, 128, 256, 512} {
		start := time.Now()
		p := sketch.BuildProfile(f, sketch.ProfileConfig{K: k, Seed: seed})
		dur := time.Since(start)
		cmp, err := CompareScorers(f, p, core.NewLinearClass(), "")
		if err != nil {
			return err
		}
		t.AddRow(k, dur, cmp.Value, cmp.PAtK, k)
	}
	t.Print(w)
	return t.WriteTSV(outDir, "ablation_k")
}

// RunAblationKLL sweeps the quantile-sketch size, reporting rank error
// against exact quantiles and space used (DESIGN.md ablation #2).
func RunAblationKLL(w io.Writer, outDir string, rows int, seed int64) error {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: rows, NumericCols: 4, Seed: seed})
	col := f.NumericColumns()[0].Values()
	ecdf := stats.NewECDF(col)
	qs := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
	t := NewTable(fmt.Sprintf("Ablation: KLL compactor size (n=%d)", rows),
		"k", "build time", "max rank err", "mean rank err", "stored items")
	for _, k := range []int{32, 64, 128, 256, 512} {
		start := time.Now()
		s := sketch.NewKLL(k, seed)
		s.UpdateAll(col)
		dur := time.Since(start)
		est := s.Quantiles(qs)
		var maxErr, sumErr float64
		for i, q := range qs {
			err := math.Abs(ecdf.At(est[i]) - q)
			sumErr += err
			if err > maxErr {
				maxErr = err
			}
		}
		t.AddRow(k, dur, maxErr, sumErr/float64(len(qs)), s.StoredItems())
	}
	t.Print(w)
	return t.WriteTSV(outDir, "ablation_kll")
}

// RunAblationHeavy sweeps the SpaceSaving capacity against the exact
// RelFreq(3) metric on Zipf data of varying skew (DESIGN.md ablation
// #3).
func RunAblationHeavy(w io.Writer, outDir string, rows int, seed int64) error {
	t := NewTable(fmt.Sprintf("Ablation: SpaceSaving capacity (n=%d, 5000 distinct)", rows),
		"capacity", "zipf s", "relfreq err", "count err bound")
	for _, s := range []float64{1.2, 1.8} {
		vals, counts := zipfCounts(rows, 5000, s)
		exactRF := 0.0
		for i := 0; i < 3 && i < len(counts); i++ {
			exactRF += float64(counts[i])
		}
		exactRF /= float64(rows)
		for _, capacity := range []int{8, 32, 128, 512} {
			ss := sketch.NewSpaceSaving(capacity)
			for _, v := range vals {
				ss.Update(v)
			}
			t.AddRow(capacity, s, math.Abs(ss.RelFreqTopK(3)-exactRF), float64(ss.Count())/float64(capacity))
		}
	}
	t.Print(w)
	return t.WriteTSV(outDir, "ablation_heavy")
}

// RunAblationEntropy compares the composed entropy estimator
// (SpaceSaving ⊕ KMV) against exact entropy across distribution
// skews (DESIGN.md ablation #4: composition vs exact).
func RunAblationEntropy(w io.Writer, outDir string, rows int, seed int64) error {
	t := NewTable(fmt.Sprintf("Ablation: composed entropy estimator (n=%d, 2000 distinct)", rows),
		"zipf s", "exact H", "estimate", "rel err%")
	for _, s := range []float64{1.1, 1.5, 2.0, 3.0} {
		vals, counts := zipfCounts(rows, 2000, s)
		heavy := sketch.NewSpaceSaving(128)
		distinct := sketch.NewKMV(2048)
		for _, v := range vals {
			heavy.Update(v)
			distinct.Update(v)
		}
		exactH := stats.Entropy(counts)
		estH := sketch.EntropyEstimate(heavy, distinct)
		rel := 100 * math.Abs(estH-exactH) / math.Max(exactH, 1e-9)
		t.AddRow(s, exactH, estH, rel)
	}
	t.Print(w)
	return t.WriteTSV(outDir, "ablation_entropy")
}

// RunAblationReservoir sweeps the shared row-sample size against the
// exact η² dependence metric (DESIGN.md ablation #5).
func RunAblationReservoir(w io.Writer, outDir string, rows int, seed int64) error {
	f := datagen.Parkinson(rows, seed)
	num, err := f.Numeric("UPDRS_Total")
	if err != nil {
		return err
	}
	cat, err := f.Categorical("Cohort")
	if err != nil {
		return err
	}
	exactEta := stats.CorrelationRatio(cat.Codes(), num.Values(), cat.Cardinality())
	t := NewTable(fmt.Sprintf("Ablation: row-sample size for η² (n=%d, exact η²=%.4f)", f.Rows(), exactEta),
		"sample", "estimate", "abs err", "build time")
	for _, size := range []int{128, 512, 2048, 8192} {
		start := time.Now()
		rs := sketch.NewRowSample(f.Rows(), size, seed)
		est := stats.CorrelationRatio(rs.GatherCodes(cat.Codes()), rs.GatherFloats(num.Values()), cat.Cardinality())
		dur := time.Since(start)
		t.AddRow(size, est, math.Abs(est-exactEta), dur)
	}
	t.Print(w)
	return t.WriteTSV(outDir, "ablation_reservoir")
}

// RunAllAblations runs every ablation at its committed size.
func RunAllAblations(w io.Writer, outDir string, seed int64) error {
	for _, run := range []func() error{
		func() error { return RunAblationK(w, outDir, 20000, 30, seed) },
		func() error { return RunAblationKLL(w, outDir, 200000, seed) },
		func() error { return RunAblationHeavy(w, outDir, 200000, seed) },
		func() error { return RunAblationEntropy(w, outDir, 100000, seed) },
		func() error { return RunAblationMultimodality(w, outDir, 20000, seed) },
		func() error { return RunAblationReservoir(w, outDir, 100000, seed) },
	} {
		if err := run(); err != nil {
			return err
		}
	}
	return nil
}

// zipfCounts draws rows Zipf(s) values over distinct strings and
// returns them with their exact counts, largest first.
func zipfCounts(rows, distinct int, s float64) ([]string, []int) {
	vals := datagen.ZipfStrings(rows, "v", distinct, s, nil)
	byValue := map[string]int{}
	for _, v := range vals {
		byValue[v]++
	}
	counts := make([]int, 0, len(byValue))
	for _, c := range byValue {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	return vals, counts
}

// RunAblationMultimodality compares the three multimodality metrics
// (dip statistic, 2-means separation, prominent KDE modes) on known
// unimodal, bimodal and trimodal data across separation strengths —
// the metric-choice ablation for the multimodality insight class.
func RunAblationMultimodality(w io.Writer, outDir string, rows int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	t := NewTable(fmt.Sprintf("Ablation: multimodality metrics (n=%d)", rows),
		"shape", "separation", "dip", "2-means sep", "kde modes")
	shapes := []struct {
		name  string
		modes int
	}{{"unimodal", 1}, {"bimodal", 2}, {"trimodal", 3}}
	for _, shape := range shapes {
		for _, sep := range []float64{2.0, 4.0, 8.0} {
			if shape.modes == 1 && sep > 2 {
				continue // separation is meaningless for one mode
			}
			xs := make([]float64, rows)
			for i := range xs {
				xs[i] = rng.NormFloat64() + float64(i%shape.modes)*sep
			}
			dip := stats.Dip(xs)
			bsep := stats.BimodalitySeparation(xs)
			modes := stats.NewKDE(xs, 0).ModeCount(0)
			t.AddRow(shape.name, sep, dip, bsep, modes)
		}
	}
	t.Print(w)
	fmt.Fprintln(w, "dip and kde-modes detect ≥2 modes once components separate; 2-means separation scales with distance.")
	return t.WriteTSV(outDir, "ablation_multimodality")
}
