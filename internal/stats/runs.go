package stats

// Run kernels: one scan of a column serves a run of partners.
//
// A pair kernel's sums are chains of dependent adds, one row after
// another, so a single pair runs at the add's latency rather than its
// throughput. The run kernels below read the shared column once for up
// to RunWidth partners and keep each partner's accumulators in its own
// locals: every partner's chain still adds its rows in row order,
// skipping exactly the rows its pair kernel skips, so each result is
// bit-identical to the pair kernel's. Only independent chains are
// interleaved; no sum is split, reordered or shared between partners.

// RunWidth is how many partners one scan serves: the accumulators of
// four partners (twelve in Pearson's second pass) still fit the sixteen
// float registers of amd64. It is a register budget, not a knob.
const RunWidth = 4

// PearsonFits is PearsonFit(x, ys[k]) for every partner k, written to
// rho[k] and fits[k], from one scan of x per RunWidth partners. Each
// field is bit-identical to PearsonFit's. It panics, as PearsonFit
// does, when a partner's length differs from x's, and when rho or fits
// is shorter than ys.
func PearsonFits(x []float64, ys [][]float64, rho []float64, fits []LinearFit) {
	for _, y := range ys {
		if len(y) != len(x) {
			panic("stats: correlation inputs have different lengths")
		}
	}
	_, _ = rho[:len(ys)], fits[:len(ys)]
	for lo := 0; lo < len(ys); lo += RunWidth {
		hi := min(lo+RunWidth, len(ys))
		if hi-lo == 1 {
			s := newPairSums(x, ys[lo])
			rho[lo], fits[lo] = s.pearson(), s.fit()
			continue
		}
		// A short block repeats its last partner; the repeats are
		// discarded.
		at := func(k int) []float64 { return ys[min(lo+k, hi-1)] }
		sums := pairSumsRun(x, at(0), at(1), at(2), at(3))
		for k := lo; k < hi; k++ {
			rho[k], fits[k] = sums[k-lo].pearson(), sums[k-lo].fit()
		}
	}
}

// pairSumsRun is newPairSums(x, y_k) for four partners of x's length,
// in newPairSums's two passes, each partner's sums in its own locals.
func pairSumsRun(x, y0, y1, y2, y3 []float64) (s [RunWidth]pairSums) {
	n := len(x)
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	var sx0, sx1, sx2, sx3, sy0, sy1, sy2, sy3 float64
	var n0, n1, n2, n3 int
	for i, xi := range x {
		if xi != xi {
			continue
		}
		if v := y0[i]; v == v {
			sx0 += xi
			sy0 += v
			n0++
		}
		if v := y1[i]; v == v {
			sx1 += xi
			sy1 += v
			n1++
		}
		if v := y2[i]; v == v {
			sx2 += xi
			sy2 += v
			n2++
		}
		if v := y3[i]; v == v {
			sx3 += xi
			sy3 += v
			n3++
		}
	}
	s[0].n, s[1].n, s[2].n, s[3].n = n0, n1, n2, n3
	if max(n0, n1, n2, n3) < 2 {
		return s
	}
	mx0, my0 := sx0/float64(n0), sy0/float64(n0)
	mx1, my1 := sx1/float64(n1), sy1/float64(n1)
	mx2, my2 := sx2/float64(n2), sy2/float64(n2)
	mx3, my3 := sx3/float64(n3), sy3/float64(n3)
	var xy0, xx0, yy0, xy1, xx1, yy1, xy2, xx2, yy2, xy3, xx3, yy3 float64
	for i, xi := range x {
		if xi != xi {
			continue
		}
		if v := y0[i]; v == v {
			dx, dy := xi-mx0, v-my0
			xy0 += dx * dy
			xx0 += dx * dx
			yy0 += dy * dy
		}
		if v := y1[i]; v == v {
			dx, dy := xi-mx1, v-my1
			xy1 += dx * dy
			xx1 += dx * dx
			yy1 += dy * dy
		}
		if v := y2[i]; v == v {
			dx, dy := xi-mx2, v-my2
			xy2 += dx * dy
			xx2 += dx * dx
			yy2 += dy * dy
		}
		if v := y3[i]; v == v {
			dx, dy := xi-mx3, v-my3
			xy3 += dx * dy
			xx3 += dx * dx
			yy3 += dy * dy
		}
	}
	// A partner with fewer than two pairs keeps newPairSums's zero sums.
	for k, p := range [RunWidth]pairSums{
		{n0, mx0, my0, xx0, xy0, yy0},
		{n1, mx1, my1, xx1, xy1, yy1},
		{n2, mx2, my2, xx2, xy2, yy2},
		{n3, mx3, my3, xx3, xy3, yy3},
	} {
		if p.n >= 2 {
			s[k] = p
		}
	}
	return s
}

// CorrelationRatios is CorrelationRatio(codes[k], values, groups[k]) for
// every partner k, written to eta2[k], from one scan of values per
// RunWidth partners; each is bit-identical to CorrelationRatio's. Like
// CorrelationRatio, partner k reads the first min(len(codes[k]),
// len(values)) rows. It panics when groups or eta2 is shorter than
// codes.
func CorrelationRatios(values []float64, codes [][]int32, groups []int, eta2 []float64) {
	_, _ = groups[:len(codes)], eta2[:len(codes)]
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for lo := 0; lo < len(codes); lo += RunWidth {
		hi := min(lo+RunWidth, len(codes))
		var b etaRun
		for k := range b.codes {
			p := min(lo+k, hi-1) // a short block repeats its last partner
			b.codes[k], b.groups[k] = codes[p], max(groups[p], 0)
		}
		sc.floats = b.carve(sc.floats)
		r := b.ratios(values)
		copy(eta2[lo:hi], r[:hi-lo])
	}
}

// etaRun is one block of CorrelationRatios: RunWidth partners and their
// per-group sums and counts, carved from pooled scratch.
type etaRun struct {
	codes          [RunWidth][]int32
	groups         [RunWidth]int
	groupSum, size [RunWidth][]float64
}

// carve zeroes 2·Σgroups floats of buf (grown when short) and hands
// each partner its two group tables; it returns the buffer.
func (b *etaRun) carve(buf []float64) []float64 {
	need := 0
	for _, g := range b.groups {
		need += 2 * g
	}
	buf = grow(buf, need)
	clear(buf)
	at := 0
	for k, g := range b.groups {
		b.groupSum[k], b.size[k] = buf[at:at+g:at+g], buf[at+g:at+2*g:at+2*g]
		at += 2 * g
	}
	return buf
}

// ratios is CorrelationRatio's two passes over the block. Rows every
// partner reads run interleaved, each partner's totals in its own
// locals; a partner with more codes than the shortest finishes its own
// rows alone, still in row order.
func (b *etaRun) ratios(values []float64) (eta2 [RunWidth]float64) {
	common := len(values)
	for _, c := range b.codes {
		common = min(common, len(c))
	}
	c0, c1, c2, c3 := b.codes[0][:common], b.codes[1][:common], b.codes[2][:common], b.codes[3][:common]
	g0, g1, g2, g3 := b.groups[0], b.groups[1], b.groups[2], b.groups[3]
	gs0, gs1, gs2, gs3 := b.groupSum[0], b.groupSum[1], b.groupSum[2], b.groupSum[3]
	gn0, gn1, gn2, gn3 := b.size[0], b.size[1], b.size[2], b.size[3]
	var t0, t1, t2, t3, n0, n1, n2, n3 float64
	for i, v := range values[:common] {
		if v != v {
			continue
		}
		if c := c0[i]; c >= 0 && int(c) < g0 {
			gs0[c] += v
			gn0[c]++
			t0 += v
			n0++
		}
		if c := c1[i]; c >= 0 && int(c) < g1 {
			gs1[c] += v
			gn1[c]++
			t1 += v
			n1++
		}
		if c := c2[i]; c >= 0 && int(c) < g2 {
			gs2[c] += v
			gn2[c]++
			t2 += v
			n2++
		}
		if c := c3[i]; c >= 0 && int(c) < g3 {
			gs3[c] += v
			gn3[c]++
			t3 += v
			n3++
		}
	}
	total, totalN := [RunWidth]float64{t0, t1, t2, t3}, [RunWidth]float64{n0, n1, n2, n3}
	for k, codes := range b.codes {
		for i := common; i < min(len(codes), len(values)); i++ {
			if c, v := codes[i], values[i]; c >= 0 && int(c) < b.groups[k] && v == v {
				b.groupSum[k][c] += v
				b.size[k][c]++
				total[k] += v
				totalN[k]++
			}
		}
	}

	var grand, ssBetween [RunWidth]float64
	for k := range grand {
		grand[k] = total[k] / totalN[k]
		for g, size := range b.size[k] {
			if size > 0 {
				d := b.groupSum[k][g]/size - grand[k]
				ssBetween[k] += size * d * d
			}
		}
	}
	m0, m1, m2, m3 := grand[0], grand[1], grand[2], grand[3]
	var s0, s1, s2, s3 float64
	for i, v := range values[:common] {
		if v != v {
			continue
		}
		if c := c0[i]; c >= 0 && int(c) < g0 {
			d := v - m0
			s0 += d * d
		}
		if c := c1[i]; c >= 0 && int(c) < g1 {
			d := v - m1
			s1 += d * d
		}
		if c := c2[i]; c >= 0 && int(c) < g2 {
			d := v - m2
			s2 += d * d
		}
		if c := c3[i]; c >= 0 && int(c) < g3 {
			d := v - m3
			s3 += d * d
		}
	}
	ssTotal := [RunWidth]float64{s0, s1, s2, s3}
	for k, codes := range b.codes {
		for i := common; i < min(len(codes), len(values)); i++ {
			if c, v := codes[i], values[i]; c >= 0 && int(c) < b.groups[k] && v == v {
				d := v - grand[k]
				ssTotal[k] += d * d
			}
		}
	}

	for k := range eta2 {
		eta2[k] = etaSquared(totalN[k], ssBetween[k], ssTotal[k])
	}
	return eta2
}
