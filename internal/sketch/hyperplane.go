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
	// Workers is how many goroutines may share the pass (0 or 1 =
	// sequential, < 0 = GOMAXPROCS, n > 1 = n — the sketch layer's
	// uniform convention). A pass with enough columns is cut into one
	// contiguous column chunk per worker (see projectRange): over many
	// rows each chunk draws its own directions, over a few — an ingest
	// batch — the chunks share each block's. The sketches are identical
	// at any worker count.
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
// rows never regenerates the directions of the rows before them.
//
// The definition of dot q of a column is the scalar one: start at 0
// and, row by ascending row, add (value − mean)·direction[row][q],
// each product and each sum rounded to float64. Rows accumulate in
// ascending order, so one call over [a, c) and the Merge of calls over
// [a, b) and [b, c) differ only by floating-point association.
// projectBlock computes exactly that, a tile of dots at a time.
//
// With cfg.Workers > 1 and enough columns, the columns are cut into one
// contiguous chunk per worker. Over many rows each chunk runs the
// sequential kernel by itself, drawing its own copy of every direction
// block: the duplicated draws cost a fifth of an 80-column chunk's
// multiply-adds, and in exchange no chunk waits for another's draws or
// meets it at a barrier. Over a few blocks of rows — an ingest batch,
// whose row-local sketches run beside the projection and want the core
// a second copy of the draws would take — each block is drawn once and
// the chunks read it side by side, meeting once per block. Both sides
// of the cutoff are measured (DESIGN §6g, step 4). Either way a
// column's dots are computed by one
// goroutine with the same operations in the same order wherever its
// chunk boundary falls, so the result is identical at any worker count.
// Cost: O(d·(end−start)·k) multiply-adds plus, per chunk (or once, for
// a short range), at most (end−start+directionGranule)·k Gaussian
// draws; memory O(directionGranule·k) per chunk + d·k.
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
	// A chunk that draws every direction itself, about sixteen
	// multiply-adds' worth each, wants at least that many columns to
	// spend the draws on; below a few blocks of rows the chunks share
	// the draws. Chunks are whole tiles; only the last may end in a
	// partial one.
	const minChunkTiles, minChunkBlocks = 2, 4
	tiles := (d + tileColumns - 1) / tileColumns
	chunks := min(resolveParallel(cfg.Workers), tiles/minChunkTiles)
	if chunks < 2 {
		projectChunk(cols, means, out, start, end, cfg)
		return out
	}
	chunk := func(c int) (lo, hi int) {
		return c * tiles / chunks * tileColumns, min(d, (c+1)*tiles/chunks*tileColumns)
	}
	if end-start < minChunkBlocks*directionGranule {
		eachBlock(start, end, cfg, func(lo, hi int, g []float32) {
			eachColumn(chunks, chunks, func(c int) {
				clo, chi := chunk(c)
				projectBlock(cols[clo:chi], means[clo:chi], out[clo:chi], lo, hi, g, cfg.K)
			})
		})
		return out
	}
	eachColumn(chunks, chunks, func(c int) {
		lo, hi := chunk(c)
		projectChunk(cols[lo:hi], means[lo:hi], out[lo:hi], start, end, cfg)
	})
	return out
}

// tileColumns is how many columns the kernel projects at once: their
// running dots for one direction are projectTile's accumulators.
const tileColumns = 8

// eachBlock draws the directions of rows [start, end) one direction
// block at a time, in ascending order, and hands fn each block's part
// of the range: rows [lo, hi) and their directions g, row-major, k a
// row. g is overwritten by the next block.
func eachBlock(start, end int, cfg ProjectConfig, fn func(lo, hi int, g []float32)) {
	k := cfg.K
	// One block's directions, up to the last row of it the range reaches.
	first := start / directionGranule
	block := make([]float32, min(directionGranule, end-first*directionGranule)*k)
	for b := first; b*directionGranule < end; b++ {
		base := b * directionGranule
		lo, hi := max(start, base), min(end, base+directionGranule)
		fillDirections(cfg.Seed, b, block[:(hi-base)*k])
		fn(lo, hi, block[(lo-base)*k:(hi-base)*k])
	}
}

// projectChunk adds rows [start, end) of cols to out's dots, one
// direction block at a time (projectBlock).
func projectChunk(cols [][]float64, means []float64, out []*Projection, start, end int, cfg ProjectConfig) {
	eachBlock(start, end, cfg, func(lo, hi int, g []float32) {
		projectBlock(cols, means, out, lo, hi, g, cfg.K)
	})
}

// projectBlock adds rows [lo, hi) of cols, which lie in one direction
// block, to out's dots; g holds the rows' directions, k a row. The work
// is tiled: the centred values of tileColumns columns are staged once
// (missing cells and rows past a column's end as 0, whose products
// leave a dot unchanged), then for each direction their tileColumns
// running dots sit in registers while the rows stream past — a
// direction is loaded and widened once for eight multiply-adds, and no
// dot is loaded or stored inside the loop. Each running dot starts
// from the value the previous block left and adds its rows in
// ascending order: the scalar definition's operations in the scalar
// definition's order, which is what keeps every dot bit-identical to it
// (projectRangeScalar in the tests). The last tile may hold fewer
// columns; the unused lanes project zeros into dots nobody reads.
func projectBlock(cols [][]float64, means []float64, out []*Projection, lo, hi int, g []float32, k int) {
	var staged [tileColumns][directionGranule]float64
	var acc [tileColumns]float64
	n := hi - lo
	for j := 0; j < len(cols); j += tileColumns {
		tile := out[j:min(j+tileColumns, len(cols))]
		for c := range staged {
			if c < len(tile) {
				center(staged[c][:n], cols[j+c], lo, means[j+c])
			} else {
				clear(staged[c][:n])
			}
		}
		for q := 0; q < k; q++ {
			for c, p := range tile {
				acc[c] = p.Dots[q]
			}
			projectTile(&staged, n, g[q:], k, &acc)
			for c, p := range tile {
				p.Dots[q] = acc[c]
			}
		}
	}
}

// center stages rows [lo, lo+len(dst)) of col minus mean; a missing
// cell or a row past the column's end is mean-imputed, i.e. 0.
func center(dst, col []float64, lo int, mean float64) {
	n := 0
	if lo < len(col) {
		n = copy(dst, col[lo:])
	}
	for i, v := range dst[:n] {
		if v != v {
			dst[i] = 0
		} else {
			dst[i] = v - mean
		}
	}
	clear(dst[n:])
}

// projectTile adds x[c][r]·g[r·k] to acc[c] for the first n rows r, in
// row order, for every column c of the tile; g starts at the first
// row's entry for the direction and k is the row stride.
func projectTile(x *[tileColumns][directionGranule]float64, n int, g []float32, k int, acc *[tileColumns]float64) {
	x0, x1, x2, x3 := x[0][:n], x[1][:n], x[2][:n], x[3][:n]
	x4, x5, x6, x7 := x[4][:n], x[5][:n], x[6][:n], x[7][:n]
	a0, a1, a2, a3, a4, a5, a6, a7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for r := range x0 {
		gv := float64(g[r*k])
		a0 += x0[r] * gv
		a1 += x1[r] * gv
		a2 += x2[r] * gv
		a3 += x3[r] * gv
		a4 += x4[r] * gv
		a5 += x5[r] * gv
		a6 += x6[r] * gv
		a7 += x7[r] * gv
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = a0, a1, a2, a3, a4, a5, a6, a7
}
