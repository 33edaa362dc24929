package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"foresight/internal/frame"
)

// ScalableConfig parameterizes the performance-experiment generator:
// datasets "of the order of 100K [rows] and attributes that number in
// the hundreds" (paper §4.1).
type ScalableConfig struct {
	// Rows and NumericCols size the table.
	Rows, NumericCols int
	// CatCols adds Zipf categorical columns (default 0).
	CatCols int
	// BlockSize groups numeric columns into correlated blocks sharing
	// one factor (default 8). Within a block, column i carries loading
	// 0.9−0.12·(i mod 5), so pairwise correlations span ≈0.15–0.81 —
	// a spread that exercises both strong-insight ranking and
	// weak-signal estimation.
	BlockSize int
	// Seed drives all randomness.
	Seed int64
	// OutlierEvery plants outliers in every OutlierEvery-th column
	// (0 = none).
	OutlierEvery int
	// MissingEvery plants NaN cells in every MissingEvery-th column
	// (0 = none).
	MissingEvery int
}

func (c *ScalableConfig) fill() {
	if c.Rows <= 0 {
		c.Rows = 100000
	}
	if c.NumericCols <= 0 {
		c.NumericCols = 100
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 8
	}
}

// Scalable generates the performance-experiment dataset. Column
// marginals cycle through normal, lognormal and bimodal shapes so
// every numeric insight class has non-trivial instances at any scale.
func Scalable(cfg ScalableConfig) *frame.Frame {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n, d := cfg.Rows, cfg.NumericCols
	cols := make([]frame.Column, 0, d+cfg.CatCols)

	factor := make([]float64, n) // current block's shared factor
	for j := 0; j < d; j++ {
		inBlock := j % cfg.BlockSize
		if inBlock == 0 {
			for i := range factor {
				factor[i] = rng.NormFloat64()
			}
		}
		loading := 0.9 - 0.12*float64(inBlock%5)
		unique := math.Sqrt(1 - loading*loading)
		vals := make([]float64, n)
		var marginal Marginal
		switch j % 4 {
		case 0, 1:
			marginal = Normal{Mu: float64(j), Sd: 1 + float64(j%7)}
		case 2:
			marginal = LogNormal{Mu: 1 + 0.1*float64(j%10), Sigma: 0.6}
		default:
			marginal = Bimodal{Sep: 2.5}
		}
		for i := 0; i < n; i++ {
			z := loading*factor[i] + unique*rng.NormFloat64()
			vals[i] = marginal.Transform(z)
		}
		if cfg.OutlierEvery > 0 && j%cfg.OutlierEvery == cfg.OutlierEvery-1 {
			PlantOutliers(vals, 997, 12)
		}
		if cfg.MissingEvery > 0 && j%cfg.MissingEvery == cfg.MissingEvery-1 {
			PlantMissing(vals, 101)
		}
		cols = append(cols, frame.NewNumericColumn(fmt.Sprintf("num%03d", j), vals))
	}
	for j := 0; j < cfg.CatCols; j++ {
		card := 15 + 40*(j%5)
		cols = append(cols, frame.NewCategoricalColumn(
			fmt.Sprintf("cat%02d", j),
			ZipfStrings(n, fmt.Sprintf("c%d_", j), card, 1.3+0.3*float64(j%4), rng)))
	}
	f, err := frame.New(fmt.Sprintf("scalable-%dx%d", n, d+cfg.CatCols), cols...)
	if err != nil {
		panic(err)
	}
	return f
}
