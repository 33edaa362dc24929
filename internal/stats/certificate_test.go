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
