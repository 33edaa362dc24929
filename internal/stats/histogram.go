package stats

import (
	"math"
)

// BinRule selects an automatic histogram binning rule.
type BinRule int

const (
	// FreedmanDiaconis uses bin width 2·IQR·n^(−1/3); robust default.
	FreedmanDiaconis BinRule = iota
	// Sturges uses ⌈log₂n⌉+1 bins; suits near-normal small samples.
	Sturges
	// Scott uses bin width 3.49·σ·n^(−1/3).
	Scott
)

// Histogram is an equal-width binning of a numeric sample.
type Histogram struct {
	// Edges has len(Counts)+1 entries; bin i covers
	// [Edges[i], Edges[i+1]) with the final bin closed on the right.
	Edges []float64
	// Counts holds the number of observations per bin.
	Counts []int
	// N is the total number of binned (non-NaN) observations.
	N int
}

// NumBins returns the suggested number of bins for the non-NaN values
// of xs under the rule, always at least 1. Values already sorted and
// free of NaN (Ordered.WithSorted) are read in place.
func NumBins(xs []float64, rule BinRule) int {
	s := xs
	if !sortedClean(xs) {
		s = sortedCopy(xs)
	}
	n := len(s)
	if n == 0 {
		return 1
	}
	span := s[n-1] - s[0]
	if span == 0 {
		return 1
	}
	var width float64
	switch rule {
	case Sturges:
		return int(math.Ceil(math.Log2(float64(n)))) + 1
	case Scott:
		width = 3.49 * StdDev(s) * math.Pow(float64(n), -1.0/3.0)
	default: // FreedmanDiaconis
		iqr := QuantileSorted(s, 0.75) - QuantileSorted(s, 0.25)
		if iqr == 0 {
			// Degenerate IQR: fall back to Sturges.
			return int(math.Ceil(math.Log2(float64(n)))) + 1
		}
		width = 2 * iqr * math.Pow(float64(n), -1.0/3.0)
	}
	if width <= 0 {
		return 1
	}
	bins := int(math.Ceil(span / width))
	if bins < 1 {
		bins = 1
	}
	if bins > 512 {
		bins = 512
	}
	return bins
}

// sortedClean reports whether xs is ascending and free of NaN, as
// sortedCopy would leave it.
func sortedClean(xs []float64) bool {
	for i, x := range xs {
		if math.IsNaN(x) || (i > 0 && x < xs[i-1]) {
			return false
		}
	}
	return true
}

// NewHistogram bins the non-NaN values of xs into the given number of
// equal-width bins (at least 1). It returns an empty histogram for
// empty input.
func NewHistogram(xs []float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	clean := dropNaN(xs)
	if len(clean) == 0 {
		return &Histogram{Edges: []float64{0, 1}, Counts: make([]int, 1)}
	}
	min, max := MinMax(clean)
	if min == max {
		// All values identical: one bin of nominal width.
		return &Histogram{
			Edges:  []float64{min, min + 1},
			Counts: []int{len(clean)},
			N:      len(clean),
		}
	}
	h := &Histogram{
		Edges:  make([]float64, bins+1),
		Counts: make([]int, bins),
		N:      len(clean),
	}
	width := (max - min) / float64(bins)
	if math.IsInf(width, 0) {
		// The span overflowed float64 (extreme ± values). Use the
		// half-ranges so arithmetic stays finite.
		width = max/float64(bins) - min/float64(bins)
	}
	for i := 0; i <= bins; i++ {
		h.Edges[i] = min + float64(i)*width
	}
	h.Edges[bins] = max // avoid rounding drift on the last edge
	for _, v := range clean {
		idx := int((v/width - min/width))
		if idx >= bins {
			idx = bins - 1
		}
		if idx < 0 {
			idx = 0
		}
		h.Counts[idx]++
	}
	return h
}

// AutoHistogram bins xs with the bin count chosen by rule.
func AutoHistogram(xs []float64, rule BinRule) *Histogram {
	return NewHistogram(xs, NumBins(xs, rule))
}

// Mode returns the index of the most populated bin (first on ties).
func (h *Histogram) Mode() int {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return best
}

// Densities returns per-bin probability densities (count /(N·width)).
func (h *Histogram) Densities() []float64 {
	out := make([]float64, len(h.Counts))
	if h.N == 0 {
		return out
	}
	for i, c := range h.Counts {
		width := h.Edges[i+1] - h.Edges[i]
		if width > 0 {
			out[i] = float64(c) / (float64(h.N) * width)
		}
	}
	return out
}

// PeakCount returns the number of local maxima in the bin counts after
// light smoothing — a cheap multimodality indicator used alongside the
// dip statistic.
func (h *Histogram) PeakCount() int {
	counts := h.Counts
	if len(counts) < 3 {
		if len(counts) > 0 && h.N > 0 {
			return 1
		}
		return 0
	}
	// 3-tap moving average smoothing to suppress single-bin noise.
	sm := make([]float64, len(counts))
	for i := range counts {
		sum, n := float64(counts[i]), 1.0
		if i > 0 {
			sum += float64(counts[i-1])
			n++
		}
		if i < len(counts)-1 {
			sum += float64(counts[i+1])
			n++
		}
		sm[i] = sum / n
	}
	peaks := 0
	for i := range sm {
		left := math.Inf(-1)
		if i > 0 {
			left = sm[i-1]
		}
		right := math.Inf(-1)
		if i < len(sm)-1 {
			right = sm[i+1]
		}
		if sm[i] > left && sm[i] >= right && sm[i] > 0 {
			peaks++
		}
	}
	return peaks
}
