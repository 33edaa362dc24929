package stats

import (
	"math"
)

// LinearFit is a simple ordinary-least-squares line y = Slope·x +
// Intercept, used to superimpose the best-fit line on scatter-plot
// insights.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
	// N is the number of pairwise-complete observations used.
	N int
}

// FitLine fits an OLS line through the pairwise-complete observations
// of (xs, ys). Slope is NaN when x is constant.
func FitLine(xs, ys []float64) LinearFit { return newPairSums(xs, ys).fit() }

func (s pairSums) fit() LinearFit {
	if s.n < 2 || s.sxx == 0 {
		return LinearFit{Slope: math.NaN(), Intercept: math.NaN(), R2: math.NaN(), N: s.n}
	}
	slope := s.sxy / s.sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: s.my - slope*s.mx,
		N:         s.n,
	}
	if s.syy > 0 {
		fit.R2 = (s.sxy * s.sxy) / (s.sxx * s.syy)
	} else {
		fit.R2 = math.NaN()
	}
	return fit
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }
