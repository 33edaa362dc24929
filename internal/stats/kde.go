package stats

import (
	"math"
)

// KDE is a one-dimensional Gaussian kernel density estimator over a
// fixed sample. Foresight uses it for smooth density overlays on
// histogram visualizations and as an alternative multimodality metric
// (counting modes of the smoothed density).
type KDE struct {
	sample    []float64
	bandwidth float64
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 0.9·min(σ, IQR/1.34)·n^(−1/5) for the non-NaN values, falling back
// to σ-only (or 1.0) when the robust spread degenerates.
func SilvermanBandwidth(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 1
	}
	sd := StdDev(s)
	iqr := QuantileSorted(s, 0.75) - QuantileSorted(s, 0.25)
	spread := sd
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 || math.IsNaN(spread) {
		return 1
	}
	return 0.9 * spread * math.Pow(float64(n), -0.2)
}

// NewKDE builds an estimator over the non-NaN values of xs with the
// given bandwidth (≤ 0 selects Silverman's rule).
func NewKDE(xs []float64, bandwidth float64) *KDE {
	sample := sortedCopy(xs)
	if bandwidth <= 0 || math.IsNaN(bandwidth) {
		bandwidth = SilvermanBandwidth(sample)
	}
	return &KDE{sample: sample, bandwidth: bandwidth}
}

// Len returns the sample size.
func (k *KDE) Len() int { return len(k.sample) }

const invSqrt2Pi = 0.3989422804014327

// At evaluates the density estimate at x. O(n) per call; use Grid for
// many evaluations (it exploits the sorted sample to truncate the
// kernel support).
func (k *KDE) At(x float64) float64 {
	n := len(k.sample)
	if n == 0 {
		return math.NaN()
	}
	h := k.bandwidth
	sum := 0.0
	for _, v := range k.sample {
		z := (x - v) / h
		if z > 8 || z < -8 {
			continue // beyond 8σ the kernel mass is negligible
		}
		sum += math.Exp(-0.5 * z * z)
	}
	return sum * invSqrt2Pi / (float64(n) * h)
}

// Grid evaluates the density on `points` equally spaced positions
// spanning [min−3h, max+3h], returning the positions and densities.
func (k *KDE) Grid(points int) (xs, densities []float64) {
	if points < 2 {
		points = 64
	}
	n := len(k.sample)
	if n == 0 {
		return nil, nil
	}
	lo := k.sample[0] - 3*k.bandwidth
	hi := k.sample[n-1] + 3*k.bandwidth
	xs = make([]float64, points)
	densities = make([]float64, points)
	step := (hi - lo) / float64(points-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
		densities[i] = k.At(xs[i])
	}
	return xs, densities
}

// ModeCount returns the number of *prominent* local maxima of the
// density evaluated on a grid of the given resolution (128 when ≤ 0) —
// a smoothed-density multimodality measure complementing the dip
// statistic. A peak counts only if the density rises at least 5% of
// the global maximum above the deepest valley separating it from the
// previous counted peak, which suppresses sampling ripples.
func (k *KDE) ModeCount(gridPoints int) int {
	if gridPoints <= 0 {
		gridPoints = 128
	}
	_, d := k.Grid(gridPoints)
	if len(d) == 0 {
		return 0
	}
	peak := 0.0
	for _, v := range d {
		if v > peak {
			peak = v
		}
	}
	if peak <= 0 {
		return 0
	}
	prominence := 0.05 * peak
	modes := 0
	const seekPeak, seekValley = 0, 1
	state := seekPeak
	valley := d[0] // deepest point since the last confirmed peak
	high := d[0]   // highest point since the last confirmed valley
	for _, v := range d {
		switch state {
		case seekPeak:
			if v > high {
				high = v
			}
			if v < valley {
				valley = v
				high = v // reset the climb from the deeper valley
			}
			// Peak confirmed once we have climbed `prominence` above
			// the valley and descended `prominence` from the top.
			if high-valley >= prominence && high-v >= prominence {
				modes++
				state = seekValley
				valley = v
			}
		case seekValley:
			if v < valley {
				valley = v
			}
			// Valley confirmed once we climb `prominence` again.
			if v-valley >= prominence {
				state = seekPeak
				high = v
			}
		}
	}
	// Trailing climb that never descended (guarded against by the 3h
	// grid padding, but kept for safety).
	if state == seekPeak && high-valley >= prominence {
		modes++
	}
	return modes
}
