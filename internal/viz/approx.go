package viz

import (
	"math"

	"foresight/internal/sketch"
)

// HistogramFromKLL reconstructs an equal-width histogram from a KLL
// sketch: counts are CDF differences across the bin edges, with the
// domain taken from the moments sketch extrema. bins ≤ 0 selects
// ⌈√(stored items)⌉ capped to [8, 64].
func HistogramFromKLL(s *sketch.KLL, m *sketch.Moments, bins int) (edges []float64, counts []float64) {
	if s == nil || s.Count() == 0 {
		return []float64{0, 1}, []float64{0}
	}
	lo, hi := m.Min(), m.Max()
	if math.IsNaN(lo) || math.IsNaN(hi) || lo == hi {
		return []float64{lo, lo + 1}, []float64{float64(s.Count())}
	}
	if bins <= 0 {
		bins = int(math.Sqrt(float64(s.StoredItems())))
		if bins < 8 {
			bins = 8
		}
		if bins > 64 {
			bins = 64
		}
	}
	edges = make([]float64, bins+1)
	counts = make([]float64, bins)
	width := (hi - lo) / float64(bins)
	for i := 0; i <= bins; i++ {
		edges[i] = lo + float64(i)*width
	}
	total := float64(s.Count())
	prev := 0.0
	for i := 1; i <= bins; i++ {
		cum := s.CDF(edges[i]) * total
		counts[i-1] = math.Max(0, cum-prev)
		prev = cum
	}
	return edges, counts
}

// histogramBarsSVG renders pre-binned bars (float counts).
func histogramBarsSVG(edges, counts []float64, title string) string {
	s := newSVG(defaultW, defaultH)
	s.text(defaultW/2, 18, 13, "middle", title)
	if len(counts) == 0 {
		s.text(defaultW/2, defaultH/2, 12, "middle", "no data")
		return s.String()
	}
	maxCount := 0.0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		s.text(defaultW/2, defaultH/2, 12, "middle", "no data")
		return s.String()
	}
	plotW := float64(defaultW) - marginL - marginR
	plotH := float64(defaultH) - marginT - marginB
	y := newScale(0, maxCount, marginT+plotH, marginT)
	binW := plotW / float64(len(counts))
	for i, c := range counts {
		x := marginL + float64(i)*binW
		top := y.at(c)
		s.rect(x+0.5, top, binW-1, marginT+plotH-top, colorPrimary, 0.85)
	}
	s.line(marginL, marginT+plotH, marginL+plotW, marginT+plotH, "#333", 1)
	s.text(marginL, float64(defaultH)-12, 10, "start", fmtNum(edges[0]))
	s.text(marginL+plotW, float64(defaultH)-12, 10, "end", fmtNum(edges[len(edges)-1]))
	s.text(marginL-6, marginT+8, 10, "end", fmtNum(maxCount))
	return s.String()
}

// boxFromSketchSVG renders a box plot from KLL quantiles, moments
// extrema, and the outliers among sampled, the column's values at the
// row sample.
func boxFromSketchSVG(np *sketch.NumericProfile, sampled []float64, title string) string {
	s := newSVG(defaultW, 180)
	s.text(defaultW/2, 18, 13, "middle", title)
	qs := np.Quantiles.Quantiles([]float64{0.25, 0.5, 0.75})
	if math.IsNaN(qs[1]) {
		s.text(defaultW/2, 90, 12, "middle", "no data")
		return s.String()
	}
	lo, hi := np.Moments.Min(), np.Moments.Max()
	x := newScale(lo, hi, marginL, float64(defaultW)-marginR)
	iqr := qs[2] - qs[0]
	fenceLo, fenceHi := qs[0]-1.5*iqr, qs[2]+1.5*iqr
	mid := 90.0
	boxH := 44.0
	wLo := math.Max(lo, fenceLo)
	wHi := math.Min(hi, fenceHi)
	s.line(x.at(wLo), mid, x.at(qs[0]), mid, "#333", 1.5)
	s.line(x.at(qs[2]), mid, x.at(wHi), mid, "#333", 1.5)
	s.rect(x.at(qs[0]), mid-boxH/2, x.at(qs[2])-x.at(qs[0]), boxH, colorPrimary, 0.35)
	s.line(x.at(qs[1]), mid-boxH/2, x.at(qs[1]), mid+boxH/2, colorPrimary, 2.5)
	for _, v := range sampled {
		if v < fenceLo || v > fenceHi {
			s.circle(x.at(v), mid, 3, colorAccent, 0.9)
		}
	}
	s.text(marginL, 160, 10, "start", fmtNum(lo))
	s.text(float64(defaultW)-marginR, 160, 10, "end", fmtNum(hi))
	s.text(x.at(qs[1]), mid-boxH/2-6, 10, "middle", "median "+fmtNum(qs[1]))
	return s.String()
}
