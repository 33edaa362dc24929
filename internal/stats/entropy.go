package stats

import (
	"math"
)

// Entropy returns the Shannon entropy (nats) of a discrete
// distribution given by non-negative counts. Zero counts contribute
// nothing; an all-zero histogram has entropy 0.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(total)
			h -= p * math.Log(p)
		}
	}
	return h
}

// EntropyFromFreqs is Entropy over float64 frequencies (e.g. estimated
// counts from a sketch). Negative entries are clamped to zero.
func EntropyFromFreqs(freqs []float64) float64 {
	total := 0.0
	for _, f := range freqs {
		if f > 0 {
			total += f
		}
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, f := range freqs {
		if f > 0 {
			p := f / total
			h -= p * math.Log(p)
		}
	}
	return h
}

// NormalizedEntropy returns Entropy / log(k) where k is the number of
// distinct categories with positive counts; 1 means perfectly uniform,
// 0 means a single category. k ≤ 1 yields 0.
func NormalizedEntropy(counts []int) float64 {
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	if k <= 1 {
		return 0
	}
	return Entropy(counts) / math.Log(float64(k))
}

// Contingency is a two-way frequency table for a pair of categorical
// variables with r and c distinct levels.
type Contingency struct {
	Counts [][]int // r × c
	N      int
}

// NewContingency builds an r×c contingency table from parallel code
// slices; rows with a negative code on either side (missing) are
// skipped.
func NewContingency(a, b []int32, r, c int) *Contingency {
	t := &Contingency{Counts: make([][]int, r)}
	for i := range t.Counts {
		t.Counts[i] = make([]int, c)
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] >= 0 && b[i] >= 0 && int(a[i]) < r && int(b[i]) < c {
			t.Counts[a[i]][b[i]]++
			t.N++
		}
	}
	return t
}

// ChiSquare returns the Pearson χ² statistic of the table: the
// deviation of observed from independence-expected cell counts.
func (t *Contingency) ChiSquare() float64 {
	if t.N == 0 {
		return math.NaN()
	}
	r, c := len(t.Counts), 0
	if r > 0 {
		c = len(t.Counts[0])
	}
	rowSum := make([]float64, r)
	colSum := make([]float64, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			rowSum[i] += float64(t.Counts[i][j])
			colSum[j] += float64(t.Counts[i][j])
		}
	}
	chi := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			expected := rowSum[i] * colSum[j] / float64(t.N)
			if expected > 0 {
				d := float64(t.Counts[i][j]) - expected
				chi += d * d / expected
			}
		}
	}
	return chi
}

// CramersV returns Cramér's V ∈ [0,1], a normalized measure of
// association between two categorical variables:
// V = sqrt(χ² / (N·(min(r,c)−1))). NaN when undefined.
func (t *Contingency) CramersV() float64 {
	if t.N == 0 {
		return math.NaN()
	}
	// Count rows and columns that carry any mass, so empty levels do
	// not inflate the normalization.
	r, c := 0, 0
	for i := range t.Counts {
		for _, v := range t.Counts[i] {
			if v > 0 {
				r++
				break
			}
		}
	}
	if len(t.Counts) > 0 {
		for j := range t.Counts[0] {
			for i := range t.Counts {
				if t.Counts[i][j] > 0 {
					c++
					break
				}
			}
		}
	}
	k := r
	if c < k {
		k = c
	}
	if k < 2 {
		return math.NaN()
	}
	v := math.Sqrt(t.ChiSquare() / (float64(t.N) * float64(k-1)))
	if v > 1 {
		v = 1
	}
	return v
}

// MutualInformation returns the mutual information I(A;B) in nats of
// the joint distribution described by the table.
func (t *Contingency) MutualInformation() float64 {
	if t.N == 0 {
		return math.NaN()
	}
	r := len(t.Counts)
	c := 0
	if r > 0 {
		c = len(t.Counts[0])
	}
	rowSum := make([]float64, r)
	colSum := make([]float64, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			rowSum[i] += float64(t.Counts[i][j])
			colSum[j] += float64(t.Counts[i][j])
		}
	}
	n := float64(t.N)
	mi := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			obs := float64(t.Counts[i][j])
			if obs > 0 {
				mi += (obs / n) * math.Log(obs*n/(rowSum[i]*colSum[j]))
			}
		}
	}
	if mi < 0 {
		mi = 0 // guard tiny negative rounding
	}
	return mi
}

// CorrelationRatio returns η² ∈ [0,1], the fraction of the variance of
// the numeric values explained by the grouping codes (ANOVA
// between-group sum of squares over total sum of squares). It is
// Foresight's numeric×categorical dependence metric. Rows with a
// missing code or NaN value are skipped.
func CorrelationRatio(codes []int32, values []float64, numGroups int) float64 {
	if numGroups < 1 {
		return math.NaN()
	}
	n := len(codes)
	if len(values) < n {
		n = len(values)
	}
	groupSum := make([]float64, numGroups)
	groupN := make([]float64, numGroups)
	var total, totalN float64
	for i := 0; i < n; i++ {
		if codes[i] < 0 || int(codes[i]) >= numGroups || math.IsNaN(values[i]) {
			continue
		}
		groupSum[codes[i]] += values[i]
		groupN[codes[i]]++
		total += values[i]
		totalN++
	}
	if totalN < 2 {
		return math.NaN()
	}
	grand := total / totalN
	var ssBetween, ssTotal float64
	for g := 0; g < numGroups; g++ {
		if groupN[g] > 0 {
			d := groupSum[g]/groupN[g] - grand
			ssBetween += groupN[g] * d * d
		}
	}
	for i := 0; i < n; i++ {
		if codes[i] < 0 || int(codes[i]) >= numGroups || math.IsNaN(values[i]) {
			continue
		}
		d := values[i] - grand
		ssTotal += d * d
	}
	return etaSquared(totalN, ssBetween, ssTotal)
}

// etaSquared is η² from the complete rows' count and sums of squares:
// NaN below two rows or for a constant sample, else clamped to [0, 1].
func etaSquared(totalN, ssBetween, ssTotal float64) float64 {
	if totalN < 2 || ssTotal == 0 {
		return math.NaN()
	}
	eta2 := ssBetween / ssTotal
	if eta2 > 1 {
		eta2 = 1
	} else if eta2 < 0 {
		eta2 = 0
	}
	return eta2
}

// BinnedMutualInformation estimates the mutual information (nats)
// between two numeric variables by equal-frequency binning: each
// variable is split into `bins` rank quantile bins and MI is computed
// on the resulting contingency table. Equal-frequency bins make the
// estimate invariant under monotone transforms of either variable.
// Pairwise-complete observations only; NaN when fewer than bins²
// observations remain.
func BinnedMutualInformation(xs, ys []float64, bins int) float64 {
	if bins < 2 {
		bins = 8
	}
	px, py := pairwiseComplete(xs, ys)
	n := len(px)
	if n < bins*bins {
		return math.NaN()
	}
	bx := rankBins(px, bins)
	by := rankBins(py, bins)
	ct := NewContingency(bx, by, bins, bins)
	return ct.MutualInformation()
}

// NormalizedBinnedMI returns BinnedMutualInformation scaled to [0,1]
// by its maximum log(bins) (attained when one binned variable
// determines the other).
func NormalizedBinnedMI(xs, ys []float64, bins int) float64 {
	if bins < 2 {
		bins = 8
	}
	mi := BinnedMutualInformation(xs, ys, bins)
	if math.IsNaN(mi) {
		return math.NaN()
	}
	v := mi / math.Log(float64(bins))
	if v > 1 {
		v = 1
	}
	return v
}

// rankBins assigns each value its equal-frequency bin index in
// [0, bins) based on fractional ranks.
func rankBins(xs []float64, bins int) []int32 {
	ranks := Ranks(xs)
	n := float64(len(xs))
	out := make([]int32, len(xs))
	for i, r := range ranks {
		if math.IsNaN(r) {
			out[i] = -1
			continue
		}
		b := int32((r - 0.5) / n * float64(bins))
		if b < 0 {
			b = 0
		}
		if b >= int32(bins) {
			b = int32(bins) - 1
		}
		out[i] = b
	}
	return out
}
