// Package workload is the part of the benchmark both runs share: the
// seeded input generator and the three workload specifications. The
// end-to-end run hands the generated bytes to a foresightd process;
// the traced run parses the same bytes in-process, so both measure the
// same inputs.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Shape is a dataset's size: base rows, numeric and categorical
// attribute counts. The first LowCard categoricals have 4 levels and
// the rest 16 to 48: the segmentation class only takes categoricals of
// at most 12 levels and scores numeric × numeric × categorical
// triples with a quadratic silhouette, so LowCard decides whether a
// workload pays for it.
type Shape struct {
	Rows, Numeric, Categorical, LowCard int
}

// blockSize is how many numeric columns share one latent factor;
// the first anchors of them correlate at 0.94.
const (
	blockSize = 8
	anchors   = 2
)

// Rates of planted irregularities per numeric cell.
const (
	outlierRate = 0.002
	missingRate = 0.01
)

type numCol struct {
	loading, unique float64
	marginal        int // 0 normal, 1 lognormal, 2 bimodal
	mu, sd          float64
}

type catCol struct {
	zipf   *rand.Zipf
	levels float64
	linked bool // level follows the size of factor 0
}

// Generator is a deterministic row stream: the same (shape, seed)
// yields the same cells in the same order, so the base CSV and every
// later ingest batch are reproducible from the seed alone. Numeric
// columns come in blocks of eight driven by one latent factor each
// (within-block correlation = product of loadings, none across
// blocks), with marginals cycling normal / lognormal / bimodal. The
// first two columns of a block are its anchors: normal, loading 0.97,
// so their pair is always among the strongest linear insights (see
// Spec.FocusPairs). Categorical columns are Zipf-distributed, the
// first one tied to factor 0 so the grouping classes have something
// to find.
type Generator struct {
	rng     *rand.Rand
	num     []numCol
	cat     []catCol
	factors []float64
	header  []string
}

// NewGenerator returns the row stream for shape and seed.
func NewGenerator(shape Shape, seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{rng: rng}
	for j := 0; j < shape.Numeric; j++ {
		l, marginal := 0.35+0.6*rng.Float64(), j%3
		if j%blockSize < anchors {
			l, marginal = 0.97, 0
		}
		g.num = append(g.num, numCol{
			loading:  l,
			unique:   math.Sqrt(1 - l*l),
			marginal: marginal,
			mu:       10 * rng.NormFloat64(),
			sd:       0.5 + 4*rng.Float64(),
		})
		g.header = append(g.header, fmt.Sprintf("n%03d", j))
	}
	for j := 0; j < shape.Categorical; j++ {
		levels := uint64(16 + 8*(j%5))
		if j < shape.LowCard {
			levels = 4
		}
		g.cat = append(g.cat, catCol{
			zipf:   rand.NewZipf(rng, 1.3, 1, levels-1),
			levels: float64(levels),
			linked: j == 0,
		})
		g.header = append(g.header, fmt.Sprintf("c%02d", j))
	}
	g.factors = make([]float64, (shape.Numeric+blockSize-1)/blockSize)
	return g
}

// CSV draws the next n rows as a CSV document with a header line: the
// body of the dataset file and of every ingest POST.
func (g *Generator) CSV(n int) []byte {
	rng := g.rng
	buf := append([]byte(strings.Join(g.header, ",")), '\n')
	for row := 0; row < n; row++ {
		for f := range g.factors {
			g.factors[f] = rng.NormFloat64()
		}
		for j := range g.num {
			c := &g.num[j]
			if j > 0 {
				buf = append(buf, ',')
			}
			z := c.loading*g.factors[j/blockSize] + c.unique*rng.NormFloat64()
			var v float64
			switch c.marginal {
			case 0:
				v = c.mu + c.sd*z
			case 1:
				v = math.Exp(0.6 * z)
			default:
				v = c.sd * z
				if rng.Intn(2) == 0 {
					v += 5 * c.sd
				}
			}
			u := rng.Float64()
			switch {
			case u < missingRate:
				continue // empty cell = missing
			case u < missingRate+outlierRate:
				v += 12 * c.sd * (1 + rng.Float64())
			}
			buf = strconv.AppendFloat(buf, v, 'g', 6, 64)
		}
		for j := range g.cat {
			c := &g.cat[j]
			if len(g.num) > 0 || j > 0 {
				buf = append(buf, ',')
			}
			level := c.zipf.Uint64()
			if c.linked && len(g.factors) > 0 {
				level = uint64(math.Min(c.levels-1, math.Abs(g.factors[0])*c.levels/3))
			}
			buf = append(buf, 'L')
			buf = strconv.AppendUint(buf, level, 10)
		}
		buf = append(buf, '\n')
	}
	return buf
}
