package viz

import (
	"fmt"
	"math"
	"strings"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/stats"
)

// ASCIIHistogram renders a vertical-bar text histogram of values,
// width bars wide (20 when ≤ 0).
func ASCIIHistogram(values []float64, bars int) string {
	if bars <= 0 {
		bars = 20
	}
	h := stats.NewHistogram(values, bars)
	if h.N == 0 {
		return "(no data)\n"
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		width := 0
		if maxCount > 0 {
			width = c * 40 / maxCount
		}
		fmt.Fprintf(&b, "%10s |%s %d\n", fmtNum(h.Edges[i]), strings.Repeat("█", width), c)
	}
	return b.String()
}

// ASCIIBoxPlot renders a one-line box plot with outlier markers.
func ASCIIBoxPlot(values []float64) string {
	bs := stats.NewBoxStats(values, 0)
	if math.IsNaN(bs.Median) {
		return "(no data)\n"
	}
	const width = 60
	lo, hi := bs.Min, bs.Max
	pos := func(v float64) int {
		if hi == lo {
			return width / 2
		}
		p := int((v - lo) / (hi - lo) * float64(width-1))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	row := make([]rune, width)
	for i := range row {
		row[i] = ' '
	}
	for i := pos(bs.WhiskerLow); i <= pos(bs.WhiskerHigh); i++ {
		row[i] = '-'
	}
	for i := pos(bs.Q1); i <= pos(bs.Q3); i++ {
		row[i] = '█'
	}
	row[pos(bs.Median)] = '┃'
	for _, v := range bs.Outliers {
		row[pos(v)] = '*'
	}
	return fmt.Sprintf("%s\n%-10s%*s\n", string(row), fmtNum(lo), width-10, fmtNum(hi))
}

// ASCIIScatter renders an x/y scatter on a rows×cols character grid.
func ASCIIScatter(xs, ys []float64, rows, cols int) string {
	if rows <= 0 {
		rows = 16
	}
	if cols <= 0 {
		cols = 48
	}
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		minX, maxX = math.Min(minX, xs[i]), math.Max(maxX, xs[i])
		minY, maxY = math.Min(minY, ys[i]), math.Max(maxY, ys[i])
	}
	if minX > maxX {
		return "(no data)\n"
	}
	grid := make([][]int, rows)
	for r := range grid {
		grid[r] = make([]int, cols)
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		c, r := 0, 0
		if maxX > minX {
			c = int((xs[i] - minX) / (maxX - minX) * float64(cols-1))
		}
		if maxY > minY {
			r = int((maxY - ys[i]) / (maxY - minY) * float64(rows-1))
		}
		grid[r][c]++
	}
	marks := []rune(" ·∘○●")
	var b strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			level := grid[r][c]
			if level >= len(marks) {
				level = len(marks) - 1
			}
			b.WriteRune(marks[level])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "x: [%s, %s]  y: [%s, %s]\n", fmtNum(minX), fmtNum(maxX), fmtNum(minY), fmtNum(maxY))
	return b.String()
}

// ASCIIPareto renders sorted category frequencies with cumulative
// shares.
func ASCIIPareto(labels []string, counts []int, maxRows int) string {
	if maxRows <= 0 {
		maxRows = 10
	}
	type lc struct {
		label string
		count int
	}
	items := make([]lc, 0, len(labels))
	total := 0
	for i, l := range labels {
		if i < len(counts) {
			items = append(items, lc{l, counts[i]})
			total += counts[i]
		}
	}
	if total == 0 {
		return "(no data)\n"
	}
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].count > items[j-1].count; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	if len(items) > maxRows {
		items = items[:maxRows]
	}
	var b strings.Builder
	cum := 0.0
	maxCount := items[0].count
	for _, it := range items {
		share := float64(it.count) / float64(total)
		cum += share
		bar := it.count * 30 / maxCount
		fmt.Fprintf(&b, "%-14s |%s %d (%.1f%%, cum %.1f%%)\n",
			truncate(it.label, 14), strings.Repeat("█", bar), it.count, share*100, cum*100)
	}
	return b.String()
}

// ASCIICorrelogram renders the Figure-2 overview as a character grid:
// sign and magnitude buckets per cell.
func ASCIICorrelogram(names []string, matrix [][]float64) string {
	d := len(names)
	var b strings.Builder
	cell := func(v float64) string {
		switch {
		case math.IsNaN(v):
			return " . "
		case v >= 0.75:
			return " ██"
		case v >= 0.5:
			return " ▓▓"
		case v >= 0.25:
			return " ▒▒"
		case v > -0.25:
			return " ··"
		case v > -0.5:
			return " ‐‐"
		case v > -0.75:
			return " ──"
		default:
			return " ━━"
		}
	}
	for i := 0; i < d; i++ {
		fmt.Fprintf(&b, "%-14s", truncate(names[i], 14))
		for j := 0; j < d; j++ {
			v := math.NaN()
			if i < len(matrix) && j < len(matrix[i]) {
				v = matrix[i][j]
			}
			b.WriteString(cell(v))
		}
		b.WriteByte('\n')
	}
	b.WriteString("legend: ██ ≥.75  ▓▓ ≥.5  ▒▒ ≥.25  ·· ≈0  ‐‐ ≤-.25  ── ≤-.5  ━━ ≤-.75\n")
	return b.String()
}

// RenderASCII renders an insight as a text panel for the CLI
// carousel. A kind with no drawing renders its title alone.
func RenderASCII(f *frame.Frame, in core.Insight) (string, error) {
	header := insightTitle(in) + "\n"
	if _, ok := tupleKinds[in.Vis]; !ok {
		return header, nil
	}
	c, err := resolve(in, frameSource{f})
	if err != nil {
		return "", err
	}
	switch in.Vis {
	case core.VisHistogram, core.VisHistogramDensity:
		return header + ASCIIHistogram(c[0].values, 14), nil
	case core.VisBoxPlot:
		return header + ASCIIBoxPlot(c[0].values), nil
	case core.VisPareto, core.VisBar:
		return header + ASCIIPareto(c[0].labels, c[0].counts, 8), nil
	case core.VisScatter, core.VisScatterFit, core.VisColorScatter:
		return header + ASCIIScatter(c[0].values, c[1].values, 14, 44), nil
	case core.VisStrip:
		// Group means table.
		num, cat := c[0], c[1]
		sums := make([]float64, cat.card)
		counts := make([]float64, cat.card)
		for i, code := range cat.codes {
			if code >= 0 && !math.IsNaN(num.values[i]) {
				sums[code] += num.values[i]
				counts[code]++
			}
		}
		var b strings.Builder
		b.WriteString(header)
		for g, label := range cat.dict {
			if counts[g] > 0 {
				fmt.Fprintf(&b, "%-14s mean %s (n=%d)\n", truncate(label, 14), fmtNum(sums[g]/counts[g]), int(counts[g]))
			}
		}
		return b.String(), nil
	default: // core.VisMosaic
		a, b := c[0], c[1]
		ct := stats.NewContingency(a.codes, b.codes, a.card, b.card)
		return header + fmt.Sprintf("contingency %dx%d, chi2=%s\n", a.card, b.card, fmtNum(ct.ChiSquare())), nil
	}
}
