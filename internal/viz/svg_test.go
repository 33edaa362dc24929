package viz

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendFixedMatchesStrconv holds appendFixed to
// strconv.AppendFloat(v, 'f', prec, 64), byte for byte, over more than
// a million values at each precision the SVG writer prints: uniform
// coordinates, decimals that sit exactly halfway at the printed
// precision (and their neighbours one ulp away), negatives that round
// to -0.00, values near the 2^33 fast-path limit, arbitrary bit
// patterns, and the specials.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var vs []float64
	add := func(v float64) {
		vs = append(vs, v, -v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	for i := 0; i < 60000; i++ {
		add(rng.Float64() * 800) // canvas coordinates
		add(rng.Float64())       // opacities
		add(float64(rng.Intn(2000000)) / 1000)
	}
	for i := 0; i < 20000; i++ {
		// Halfway decimals at each printed precision: k + 0.5 units of
		// the last digit, as written in decimal and as the double
		// nearest to it.
		k := float64(rng.Intn(1000000))
		add((k + 0.5) / 10)
		add((k + 0.5) / 100)
		add((k + 0.5) / 1000)
		add(rng.Float64() * 0.005) // -0.00 and -0.000 when negated
	}
	for i := 0; i < 5000; i++ {
		add(float64(1<<33)/1000 + rng.Float64()*10 - 5)
		add(float64(1<<33)/10 + rng.Float64()*1000 - 500)
		add(math.Float64frombits(rng.Uint64()))
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 0.05, 0.125, 0.0005, 2.675, 1.005, 0.45, 1e-300, 1e300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		add(v)
	}
	if len(vs) < 1000000 {
		t.Fatalf("only %d values", len(vs))
	}
	var got, want []byte
	for prec := 0; prec <= 4; prec++ {
		for _, v := range vs {
			got = appendFixed(got[:0], v, prec)
			want = strconv.AppendFloat(want[:0], v, 'f', prec, 64)
			if string(got) != string(want) {
				t.Fatalf("appendFixed(%v (%#x), %d) = %q, strconv has %q", v, math.Float64bits(v), prec, got, want)
			}
		}
	}
}

// TestSVGElementsMatchFmt holds each element the builder writes to the
// fmt format it replaced.
func TestSVGElementsMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		x, y, w, h := rng.Float64()*640-20, rng.Float64()*480, rng.Float64()*100, -rng.Float64()*0.004
		op, ang := rng.Float64(), rng.Float64()*-90
		s := &svgBuilder{}
		s.rect(x, y, w, h, "#4477AA", op)
		s.line(x, y, w, h, "#000", op)
		s.circle(x, y, w, "red", op)
		s.text(x, y, 11, "middle", "a<b&c")
		s.textRotated(x, y, 9, ang, "lbl")
		want := fmt.Sprintf(`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="%.3f"/>`, x, y, w, h, "#4477AA", op) +
			fmt.Sprintf(`<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f"/>`, x, y, w, h, "#000", op) +
			fmt.Sprintf(`<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s" fill-opacity="%.3f"/>`, x, y, w, "red", op) +
			fmt.Sprintf(`<text x="%.2f" y="%.2f" font-size="%d" text-anchor="%s">%s</text>`, x, y, 11, "middle", "a&lt;b&amp;c") +
			fmt.Sprintf(`<text x="%.2f" y="%.2f" font-size="%d" text-anchor="end" transform="rotate(%.1f %.2f %.2f)">%s</text>`, x, y, 9, ang, x, y, "lbl")
		if got := string(s.b); got != want {
			t.Fatalf("builder wrote\n%s\nfmt writes\n%s", got, want)
		}
	}
	if got, want := newSVG(640, 480).String(), `<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480" font-family="sans-serif"><rect width="100%" height="100%" fill="white"/></svg>`; got != want {
		t.Fatalf("canvas = %s, want %s", got, want)
	}
}

func BenchmarkAppendFixed(b *testing.B) {
	vs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range vs {
		vs[i] = rng.Float64() * 640
	}
	var buf []byte
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendFixed(buf[:0], vs[i%len(vs)], 2)
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], vs[i%len(vs)], 'f', 2, 64)
		}
	})
}
