package sketch

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// Projection is the random-projection sketch of one centered column:
// the k dot products y_i = b̃·r_i with shared Gaussian directions
// r_1..r_k. Because dot products are additive across row partitions,
// Projections over disjoint row ranges merge by summation — the
// composability §3 of the paper relies on. From Projections Foresight
// derives:
//
//   - the random hyperplane (SimHash) bit vector sign(y_i), whose
//     pairwise Hamming distance estimates the angle between columns
//     (Charikar 2002) and therefore the Pearson correlation
//     ρ̂ = cos(πH/k);
//   - Johnson–Lindenstrauss inner-product estimates
//     ⟨x̃,ỹ⟩ ≈ (1/k)Σ yx_i·yy_i, i.e. covariance after dividing by n.
type Projection struct {
	// Dots are the k raw projection values.
	Dots []float64
	// Rows is the number of stream rows projected (missing cells are
	// mean-imputed, i.e. contribute zero after centering).
	Rows int
	// Seed identifies the shared direction set; merging or comparing
	// sketches with different seeds is a shape error.
	Seed int64
}

// K returns the number of projection directions.
func (p *Projection) K() int { return len(p.Dots) }

// Merge adds a Projection built over a disjoint row partition with
// the same directions (same seed, same k, same per-partition row
// offsets handled by the caller). Rows accumulate.
func (p *Projection) Merge(other *Projection) error {
	if other == nil {
		return nil
	}
	if len(p.Dots) != len(other.Dots) || p.Seed != other.Seed {
		return ErrShapeMismatch
	}
	for i := range p.Dots {
		p.Dots[i] += other.Dots[i]
	}
	p.Rows += other.Rows
	return nil
}

// EstimateDot returns the JL estimate of ⟨x̃,ỹ⟩ (the un-normalized
// covariance) between the two projected columns.
func (p *Projection) EstimateDot(other *Projection) float64 {
	if other == nil || len(p.Dots) != len(other.Dots) || len(p.Dots) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range p.Dots {
		sum += p.Dots[i] * other.Dots[i]
	}
	return sum / float64(len(p.Dots))
}

// EstimateCovariance returns the JL covariance estimate
// ⟨x̃,ỹ⟩/n.
func (p *Projection) EstimateCovariance(other *Projection) float64 {
	if p.Rows == 0 {
		return math.NaN()
	}
	return p.EstimateDot(other) / float64(p.Rows)
}

// EstimateCorrelation returns the JL correlation estimate: the
// estimated covariance normalized by the *exact* standard deviations
// sdX and sdY (obtained for free from the Moments sketch — another
// composition). The result is clamped to [-1, 1].
func (p *Projection) EstimateCorrelation(other *Projection, sdX, sdY float64) float64 {
	if sdX == 0 || sdY == 0 || math.IsNaN(sdX) || math.IsNaN(sdY) {
		return math.NaN()
	}
	r := p.EstimateCovariance(other) / (sdX * sdY)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// Hyperplane is the random hyperplane (SimHash) sketch: one sign bit
// per shared random direction. |B|·k bits for the whole dataset, as
// the paper notes.
type Hyperplane struct {
	bits []uint64
	k    int
	seed int64
}

// HyperplaneFromProjection derives the sign bit-vector φ(b) from a
// Projection (bit i = 1 iff b̃·r_i ≥ 0).
func HyperplaneFromProjection(p *Projection) *Hyperplane {
	h := &Hyperplane{
		bits: make([]uint64, (len(p.Dots)+63)/64),
		k:    len(p.Dots),
		seed: p.Seed,
	}
	for i, d := range p.Dots {
		if d >= 0 {
			h.bits[i/64] |= 1 << uint(i%64)
		}
	}
	return h
}

// K returns the number of hyperplanes (bits).
func (h *Hyperplane) K() int { return h.k }

// Hamming returns the Hamming distance H(φ(x), φ(y)) between two
// sketches, or -1 on shape mismatch.
func (h *Hyperplane) Hamming(other *Hyperplane) int {
	if other == nil || h.k != other.k || len(h.bits) != len(other.bits) || h.seed != other.seed {
		return -1
	}
	d := 0
	for i := range h.bits {
		d += bits.OnesCount64(h.bits[i] ^ other.bits[i])
	}
	return d
}

// EstimateCorrelation returns the paper's estimator
// ρ̂(x,y) = cos(π·H(φ(x),φ(y))/k).
func (h *Hyperplane) EstimateCorrelation(other *Hyperplane) float64 {
	d := h.Hamming(other)
	if d < 0 || h.k == 0 {
		return math.NaN()
	}
	return math.Cos(math.Pi * float64(d) / float64(h.k))
}

// ProjectConfig controls the shared-direction projection pass.
type ProjectConfig struct {
	// K is the number of random directions (bits of the hyperplane
	// sketch). The paper recommends k = O(log²n); KForRows implements
	// that sizing. Defaults to 256 when ≤ 0.
	K int
	// Seed makes the direction set deterministic.
	Seed int64
	// Workers parallelizes the per-column accumulation inside each
	// direction block (0 or 1 = sequential, < 0 = GOMAXPROCS, n > 1 = n
	// goroutines — the sketch layer's uniform convention). The
	// directions are a function of (Seed, block) alone, so the sketches
	// are identical at any worker count.
	Workers int
}

func (c *ProjectConfig) fill() {
	if c.K <= 0 {
		c.K = 256
	}
}

// KForRows returns the paper's k = O(log²n) sizing: ⌈c·log₂²n⌉,
// with c = 1 and a floor of 64.
func KForRows(n int) int {
	if n < 2 {
		return 64
	}
	l := math.Log2(float64(n))
	k := int(math.Ceil(l * l))
	if k < 64 {
		k = 64
	}
	return k
}

// directionGranule is the number of rows one block of the shared
// direction stream covers: block b holds the directions of global
// rows [b·directionGranule, (b+1)·directionGranule). It is part of the
// stream's definition — changing it changes every projection, like
// changing the seed — not a tuning knob. 256 rows × K float32 (227 KB
// at K = 222) stays L2-resident while the columns stream past it.
const directionGranule = 256

// fillDirections writes the directions of the first len(buf)/k rows
// of block b of seed's stream into buf, row-major. A block is a pure
// function of (seed, b): the generator is seeded per block in O(1), so
// reaching any row costs at most one granule of draws, whatever came
// before it.
func fillDirections(seed int64, b int, buf []float32) {
	// splitmix64: adjacent block indexes land on unrelated points of
	// the generator's cycle.
	rng := rand.New(rand.NewPCG(uint64(seed), mix64(uint64(b)+golden)))
	for i := range buf {
		buf[i] = float32(rng.NormFloat64())
	}
}

// projectRange is the one projection kernel: the k-dimensional
// Gaussian projections of rows [start, end) of every column. cols[j]
// is the j-th whole column, indexed by global row (NaN = missing,
// mean-imputed to zero after centering; rows past len(cols[j]) count
// as missing); means[j] is its centering value. The direction of
// global row r is a function of (cfg.Seed, r) alone (fillDirections),
// so it is identical for every column, every call and every row range:
// projections of disjoint ranges built anywhere Merge into the
// projection of their union, and extending a projection by appended
// rows never regenerates the directions of the rows before them. Rows
// accumulate in ascending order, so one call over [a, c) and the Merge
// of calls over [a, b) and [b, c) differ only by floating-point
// association.
// Cost: O(d·(end−start)·k) multiply-adds plus at most
// (end−start+directionGranule)·k Gaussian draws; memory
// O(directionGranule·k + d·k).
func projectRange(cols [][]float64, means []float64, start, end int, cfg ProjectConfig) []*Projection {
	cfg.fill()
	d := len(cols)
	out := make([]*Projection, d)
	for j := range out {
		out[j] = &Projection{Dots: make([]float64, cfg.K), Rows: end - start, Seed: cfg.Seed}
	}
	if d == 0 || start >= end {
		return out
	}
	k := cfg.K
	// One block's directions, up to the last row of it the range reaches.
	first := start / directionGranule
	block := make([]float32, min(directionGranule, end-first*directionGranule)*k)
	for b := first; b*directionGranule < end; b++ {
		base := b * directionGranule
		lo, hi := max(start, base), min(end, base+directionGranule)
		fillDirections(cfg.Seed, b, block[:(hi-base)*k])
		eachColumn(d, cfg.Workers, func(j int) {
			col := cols[j]
			dots := out[j].Dots
			mean := means[j]
			for r := lo; r < hi && r < len(col); r++ {
				v := col[r]
				if math.IsNaN(v) {
					continue // mean-imputed: centered value is 0
				}
				v -= mean
				if v == 0 {
					continue
				}
				g := block[(r-base)*k : (r-base+1)*k]
				for q, gv := range g {
					dots[q] += v * float64(gv)
				}
			}
		})
	}
	return out
}
