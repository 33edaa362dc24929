package stats

import (
	"math"
	"math/rand"
	"testing"
)

// slack is how core inflates a successor bound for rounding
// (core.boundSlack).
func slack(v float64) float64 { return v + math.Abs(v)*1e-6 + 1e-9 }

// certChain draws a frame, certifies its silhouette, appends up to four
// batches and checks that every later silhouette stays under the one
// certificate's bound. Cells go missing, codes go missing and outliers
// turn up, up to one so far out that σ overflows; mode picks the other
// hard cases: a constant x (σ unusable, read as 1) that appended rows
// make vary, appended rows of a new level, and a sample cap that lets
// the stride change.
func certChain(t *testing.T, rng *rand.Rand, mode uint8) {
	t.Helper()
	levels := 2 + rng.Intn(4)
	sampleCap := []int{0, 8, 24}[int(mode)%3]
	stride := func(n int) int {
		if sampleCap > 0 && n > sampleCap {
			return n / sampleCap
		}
		return 1
	}
	spread := 0.2 + 3*rng.Float64()
	centres := make([][2]float64, levels+1)
	for k := range centres {
		centres[k] = [2]float64{4 * rng.NormFloat64(), 4 * rng.NormFloat64()}
	}
	constantX := mode&4 != 0
	newLevel := mode&8 != 0
	var xs, ys []float64
	var codes []int32
	draw := func(rows int, appended bool) {
		for i := 0; i < rows; i++ {
			k := rng.Intn(levels)
			if appended && newLevel && rng.Intn(3) == 0 {
				k = levels
			}
			x := centres[k][0] + spread*rng.NormFloat64()
			y := centres[k][1] + spread*rng.NormFloat64()
			switch r := rng.Intn(40); {
			case r == 0:
				x = math.NaN()
			case r == 1:
				y = math.NaN()
			case r == 2:
				x += 30 * spread * rng.NormFloat64()
			case r == 3:
				k = -1
			case r == 4 && appended && rng.Intn(4) == 0:
				x = 1e300
			}
			if constantX && !appended {
				x = 2.5
			}
			xs, ys, codes = append(xs, x), append(ys, y), append(codes, int32(k))
		}
	}
	draw(8+rng.Intn(90), false)
	n0 := len(xs)
	s0, cert := CertifiedSilhouette(NewOrdered(xs), NewOrdered(ys), codes, levels, stride(n0))
	if want := GroupSilhouette(NewOrdered(xs), NewOrdered(ys), codes, levels, stride(n0)); !sameBits(s0, want) {
		t.Fatalf("CertifiedSilhouette %v, GroupSilhouette %v", s0, want)
	}
	if cert == nil {
		return
	}
	for batch := 0; batch < 1+rng.Intn(4); batch++ {
		draw(1+rng.Intn(12), true)
		n := len(xs)
		now := levels
		for _, c := range codes {
			now = max(now, int(c)+1)
		}
		x, y := NewOrdered(xs[:n:n]), NewOrdered(ys[:n:n])
		got := GroupSilhouette(x, y, codes, now, stride(n))
		if bound := cert.Bound(x, y, codes, now, stride(n)); got > slack(bound) {
			lambda, sumE, added, _ := cert.terms(x, y, codes, now, stride(n))
			t.Fatalf("%d → %d rows (stride %d → %d, %d → %d levels): silhouette %v > bound %v (S %v, λ %v, ΣE %v, J %v)",
				n0, n, stride(n0), stride(n), levels, now, got, bound, s0, lambda, sumE, added)
		}
	}
}

// FuzzSilhouetteCert checks that a certificate's bound holds over random
// frames and append chains.
func FuzzSilhouetteCert(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		certChain(t, rand.New(rand.NewSource(seed)), mode)
	})
}

// appendSize draws a batch of 1 to n rows, mostly few.
func appendSize(rng *rand.Rand, n int) int {
	return 1 + rng.Intn(max(1, n>>rng.Intn(6)))
}

// spearmanChain draws two columns of n rows, certifies their rank sums,
// appends up to four batches and checks that every later |ρ| stays under
// the sums' bound. mode picks the columns — continuous, or a few values
// with one of them holding most rows, so the centred ranks are lopsided
// — and the appends: draws of the same law, every row at one extreme of
// both columns, every row into one tie group, rows whose partner cell is
// missing, or duplicates of old rows.
func spearmanChain(t *testing.T, rng *rand.Rand, mode uint8) {
	t.Helper()
	ties := mode%2 == 1
	corr := 2*rng.Float64() - 1
	value := func() float64 {
		if !ties {
			return rng.NormFloat64()
		}
		if rng.Intn(5) > 0 {
			return 0
		}
		return []float64{math.Copysign(0, -1), 1, 2, 3, math.Inf(1)}[rng.Intn(5)]
	}
	var xs, ys []float64
	draw := func() {
		x, y := value(), value()
		if rng.Intn(2) == 0 {
			y = corr*x + (1-math.Abs(corr))*y
		}
		switch rng.Intn(15) {
		case 0:
			x = math.NaN()
		case 1:
			y = math.NaN()
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	for n := 2 + rng.Intn(150); len(xs) < n; {
		draw()
	}
	n := len(xs)
	sums := SpearmanSums(NewOrdered(xs), NewOrdered(ys))
	requireSameBits(t, "SpearmanSums.Rho", sums.Rho(), spearmanOracle(xs, ys))
	var rx, ry []float64
	for i := range xs {
		if xs[i] == xs[i] && ys[i] == ys[i] {
			rx, ry = append(rx, xs[i]), append(ry, ys[i])
		}
	}
	centred := (float64(len(rx)) + 1) / 2
	var want RankSums
	if want.M = len(rx); want.M >= 2 {
		rx, ry = ranksOracle(rx), ranksOracle(ry)
		for i := range rx {
			a, b := rx[i]-centred, ry[i]-centred
			want.XX, want.YY, want.XY = want.XX+a*a, want.YY+b*b, want.XY+a*b
		}
	}
	if sums != want {
		t.Fatalf("rank sums %+v, oracle %+v", sums, want)
	}
	if sums.Rho() != sums.Rho() {
		return
	}
	at := [2]float64{-1e9, 1e9}[rng.Intn(2)]
	tieX, tieY := xs[rng.Intn(n)], ys[rng.Intn(n)]
	kind := int(mode>>1) % 5
	for batch := 0; batch < 1+rng.Intn(4); batch++ {
		for b := appendSize(rng, n); b > 0; b-- {
			switch kind {
			case 0:
				draw()
			case 1:
				xs, ys = append(xs, at), append(ys, at*math.Copysign(1, corr))
			case 2:
				xs, ys = append(xs, tieX), append(ys, tieY)
			case 3:
				if rng.Intn(2) == 0 {
					xs, ys = append(xs, value()), append(ys, math.NaN())
				} else {
					xs, ys = append(xs, math.NaN()), append(ys, value())
				}
			case 4:
				i := rng.Intn(n)
				xs, ys = append(xs, xs[i]), append(ys, ys[i])
			}
		}
		got := math.Abs(SpearmanOrdered(NewOrdered(xs), NewOrdered(ys)))
		if bound := sums.Bound(len(xs) - n); got > slack(bound) {
			t.Fatalf("%d → %d rows (append kind %d, sums %+v): |ρ| %v → %v > bound %v",
				n, len(xs), kind, sums, math.Abs(sums.Rho()), got, bound)
		}
	}
}

// FuzzSpearmanCert checks that the rank sums are exact, give
// SpearmanOrdered's bits, and bound |ρ| over random columns and append
// chains.
func FuzzSpearmanCert(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed, uint8(seed))
	}
	// Lopsided ties and every appended row at the top: the bound without
	// its b·m'²/4 term fails here.
	f.Add(int64(103), uint8(103))
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		spearmanChain(t, rand.New(rand.NewSource(seed)), mode)
	})
}

// dipChain draws a sample of up to 150 values, takes its dip, appends up
// to four batches and checks that every later dip stays under DipBound.
// mode picks the sample — continuous, two modes, or a few values — and
// the appends: draws of the same law, every value at one far extreme,
// every value into one tie group, missing values, duplicates of old
// values, or a new mode.
func dipChain(t *testing.T, rng *rand.Rand, mode uint8) {
	t.Helper()
	value := func() float64 {
		switch mode % 3 {
		case 1:
			return rng.NormFloat64() + 6*float64(rng.Intn(2))
		case 2:
			return float64(rng.Intn(4))
		}
		return rng.NormFloat64()
	}
	var xs []float64
	for n := rng.Intn(150); len(xs) < n; {
		if rng.Intn(20) == 0 {
			xs = append(xs, math.NaN())
		} else {
			xs = append(xs, value())
		}
	}
	x := NewOrdered(xs)
	var dip float64
	x.WithSorted(func(s []float64) { dip = DipSorted(s) })
	requireSameBits(t, "DipSorted", dip, Dip(xs))
	n, kept := len(xs), x.Len()
	tie := value()
	if kept > 0 {
		tie = x.runs().at(rng.Intn(kept))
	}
	kind := int(mode/3) % 6
	for batch := 0; batch < 1+rng.Intn(4); batch++ {
		for b := appendSize(rng, max(n, 1)); b > 0; b-- {
			v := value()
			switch kind {
			case 1:
				v = 1e6
			case 2:
				v = tie
			case 3:
				v = math.NaN()
			case 4:
				if n > 0 {
					v = xs[rng.Intn(n)]
				}
			case 5:
				v = 40 + rng.NormFloat64()
			}
			xs = append(xs, v)
		}
		if got, bound := Dip(xs), DipBound(dip, kept, len(xs)-n); got > slack(bound) {
			t.Fatalf("%d → %d values (%d kept, append kind %d): dip %v → %v > bound %v",
				n, len(xs), kept, kind, dip, got, bound)
		}
	}
}

// FuzzDipCert checks that the dip's bound holds over random samples and
// append chains.
func FuzzDipCert(f *testing.F) {
	for seed := int64(0); seed < 36; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		dipChain(t, rand.New(rand.NewSource(seed)), mode)
	})
}

// certCase is a frame, the rows its certificate is made on, and the
// levels and stride the silhouette reads it at.
type certCase struct {
	name       string
	xs, ys     []float64
	codes      []int32
	base       int
	levels     int
	stride     int
	dropped    string // the term the bound fails without
	wantAdded  float64
	wantLambda bool
}

// negativePairs is k pairs of two-point groups whose members sit 100
// apart, each next to a member of the other group (silhouette ≈ −0.5),
// around a ring of ring points of one more group at the origin, with
// added points appended at the ring's centre.
func negativePairs(k, ring, added int) certCase {
	tc := certCase{name: "points joining a ring", levels: 2*k + 1, stride: 1, dropped: "J", wantAdded: float64(added)}
	for i := 0; i < k; i++ {
		th := 2 * math.Pi * float64(i) / float64(k)
		px, py := 1000*math.Cos(th), 1000*math.Sin(th)
		tc.xs = append(tc.xs, px, px, px+0.1, px+0.1)
		tc.ys = append(tc.ys, py+50, py-50, py+50, py-50)
		tc.codes = append(tc.codes, int32(2*i), int32(2*i), int32(2*i+1), int32(2*i+1))
	}
	for i := 0; i < ring; i++ {
		th := 2 * math.Pi * float64(i) / float64(ring)
		tc.xs, tc.ys, tc.codes = append(tc.xs, math.Cos(th)), append(tc.ys, math.Sin(th)), append(tc.codes, int32(2*k))
	}
	tc.base = len(tc.xs)
	for i := 0; i < added; i++ {
		tc.xs, tc.ys, tc.codes = append(tc.xs, 0), append(tc.ys, 0), append(tc.codes, int32(2*k))
	}
	return tc
}

// TestSilhouetteCertTerms holds one constructed case per term of the
// bound: each stays under the whole bound and rises above the bound
// without that term.
func TestSilhouetteCertTerms(t *testing.T) {
	for _, tc := range []certCase{
		{
			// Two groups apart on x and spread on y; the appended row is
			// off the stride, so no point joins, but it pulls σy far up
			// and σx a little down: the groups separate, by λ alone.
			name:   "σ rescaled",
			xs:     []float64{0, 2.5, 0, 2.5, 5, 2.5, 5, 2.5},
			ys:     []float64{0, 2, 4, 2, 0, 2, 4, 100},
			codes:  []int32{0, -1, 0, -1, 1, -1, 1, -1},
			base:   7,
			levels: 2, stride: 2, dropped: "λ", wantLambda: true,
		},
		{
			// On the diagonal, so both σ move alike; one point joins.
			name:   "a point joining",
			xs:     []float64{16, 6, 13, 10, 8},
			ys:     []float64{16, 6, 13, 10, 8},
			codes:  []int32{0, 1, 0, 1, 1},
			base:   4,
			levels: 2, stride: 1, dropped: "E", wantAdded: 1,
		},
		negativePairs(8, 8, 6),
	} {
		base := func(v []float64) *Ordered { return NewOrdered(v[:tc.base]) }
		s, cert := CertifiedSilhouette(base(tc.xs), base(tc.ys), tc.codes[:tc.base], tc.levels, tc.stride)
		if cert == nil {
			t.Fatalf("%s: no certificate", tc.name)
		}
		x, y := NewOrdered(tc.xs), NewOrdered(tc.ys)
		got := GroupSilhouette(x, y, tc.codes, tc.levels, tc.stride)
		lambda, sumE, added, ok := cert.terms(x, y, tc.codes, tc.levels, tc.stride)
		if !ok || added != tc.wantAdded || (lambda > 1e-9) != tc.wantLambda {
			t.Fatalf("%s: terms λ %v, ΣE %v, J %v, ok %v", tc.name, lambda, sumE, added, ok)
		}
		m := cert[certPoints]
		without := map[string]float64{
			"λ": s + (sumE+added*(1-s))/(m+added),
			"E": s + (m*lambda+added*(1-s))/(m+added),
			"J": s + (m*lambda+sumE)/(m+added),
		}[tc.dropped]
		if bound := cert.Bound(x, y, tc.codes, tc.levels, tc.stride); got > slack(bound) || got <= slack(without) {
			t.Errorf("%s: silhouette %v → %v, bound %v, without %s %v", tc.name, s, got, bound, tc.dropped, without)
		}
	}
}

// TestCertifiedSilhouetteCases: the certified kernel scores every
// hand-built case with GroupSilhouette's bits, and leaves a certificate
// exactly where one can exist.
func TestCertifiedSilhouetteCases(t *testing.T) {
	certified := map[string]bool{
		"two blobs": true, "negative codes skipped": true, "codes beyond the levels skipped": true,
		"missing codes skipped": true, "NaN points skipped": true,
	}
	for _, tc := range silhouetteCases {
		x, y := columns(tc.pts)
		s, cert := CertifiedSilhouette(x, y, tc.codes, tc.levels, 1)
		requireSameBits(t, tc.name, s, groupSilhouette(tc.pts, tc.codes, tc.levels))
		if (cert != nil) != certified[tc.name] {
			t.Errorf("%s: certificate %v, want one: %v", tc.name, cert, certified[tc.name])
		}
	}
}
