package stats

import (
	"math"
	"sort"
)

// Dip returns Hartigan & Hartigan's dip statistic of the non-NaN
// values of xs: the maximum difference between the empirical CDF and
// the closest unimodal CDF. Larger values indicate stronger
// multimodality; a perfectly unimodal sample scores near 1/(2n). The
// implementation is a faithful port of the reference diptst routine
// (Hartigan's published algorithm with Maechler's and Lu's fixes),
// using 1-based work arrays to mirror the original indexing.
func Dip(xs []float64) float64 { return DipSorted(sortedCopy(xs)) }

// DipSorted is Dip for data already sorted ascending and free of NaNs
// (Ordered.Sorted). It avoids the copy and sort.
func DipSorted(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	if sorted[0] == sorted[n-1] {
		return 0 // constant sample: perfectly unimodal
	}

	// The work arrays come from the pool: every entry the routine reads
	// it has written earlier in the same call.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// x[1..n] with a dummy 0 slot to keep the reference indexing.
	sc.floats = grow(sc.floats, n+1)
	x := sc.floats
	x[0] = 0
	copy(x[1:], sorted)

	low, high := 1, n
	// Work with 2n·dip internally (reference speedup), starting at the
	// minimal attainable value 1/n (i.e. dip = 1/(2n)).
	dip := 1.0

	sc.ints = grow(sc.ints, 4*n+6)
	mn := sc.ints[: n+1 : n+1]
	mj := sc.ints[n+1 : 2*n+2 : 2*n+2]
	gcm := sc.ints[2*n+2 : 3*n+4 : 3*n+4]
	lcm := sc.ints[3*n+4 : 4*n+6]

	// Greatest convex minorant indices.
	mn[1] = 1
	for j := 2; j <= n; j++ {
		mn[j] = j - 1
		for {
			mnj := mn[j]
			mnmnj := mn[mnj]
			if mnj == 1 ||
				(x[j]-x[mnj])*float64(mnj-mnmnj) < (x[mnj]-x[mnmnj])*float64(j-mnj) {
				break
			}
			mn[j] = mnmnj
		}
	}
	// Least concave majorant indices.
	mj[n] = n
	for k := n - 1; k >= 1; k-- {
		mj[k] = k + 1
		for {
			mjk := mj[k]
			mjmjk := mj[mjk]
			if mjk == n ||
				(x[k]-x[mjk])*float64(mjk-mjmjk) < (x[mjk]-x[mjmjk])*float64(k-mjk) {
				break
			}
			mj[k] = mjmjk
		}
	}

	for {
		// Collect GCM change points from high down to low.
		gcm[1] = high
		i := 1
		for gcm[i] > low {
			gcm[i+1] = mn[gcm[i]]
			i++
		}
		ig, lGcm := i, i
		ix := ig - 1

		// Collect LCM change points from low up to high.
		lcm[1] = low
		i = 1
		for lcm[i] < high {
			lcm[i+1] = mj[lcm[i]]
			i++
		}
		ih, lLcm := i, i
		iv := 2

		// Largest distance between GCM and LCM on [low, high].
		d := 0.0
		if lGcm != 2 || lLcm != 2 {
			for {
				gcmix := gcm[ix]
				lcmiv := lcm[iv]
				if gcmix > lcmiv {
					// Next point is on the LCM.
					gcmi1 := gcm[ix+1]
					dx := float64(lcmiv-gcmi1+1) -
						(x[lcmiv]-x[gcmi1])*float64(gcmix-gcmi1)/(x[gcmix]-x[gcmi1])
					iv++
					if dx >= d {
						d = dx
						ig = ix + 1
						ih = iv - 1
					}
				} else {
					// Next point is on the GCM (Yong Lu's symmetric fix).
					lcmiv1 := lcm[iv-1]
					dx := (x[gcmix]-x[lcmiv1])*float64(lcmiv-lcmiv1)/(x[lcmiv]-x[lcmiv1]) -
						float64(gcmix-lcmiv1-1)
					ix--
					if dx >= d {
						d = dx
						ig = ix + 1
						ih = iv
					}
				}
				if ix < 1 {
					ix = 1
				}
				if iv > lLcm {
					iv = lLcm
				}
				if gcm[ix] == lcm[iv] {
					break
				}
			}
		} else {
			d = 1.0
		}
		if d < dip {
			break
		}

		// Dip within the convex minorant.
		dipL := 0.0
		for j := ig; j < lGcm; j++ {
			maxT := 1.0
			jb, je := gcm[j+1], gcm[j]
			if je-jb > 1 && x[je] != x[jb] {
				c := float64(je-jb) / (x[je] - x[jb])
				for jj := jb; jj <= je; jj++ {
					t := float64(jj-jb+1) - (x[jj]-x[jb])*c
					if t > maxT {
						maxT = t
					}
				}
			}
			if maxT > dipL {
				dipL = maxT
			}
		}
		// Dip within the concave majorant.
		dipU := 0.0
		for j := ih; j < lLcm; j++ {
			maxT := 1.0
			jb, je := lcm[j], lcm[j+1]
			if je-jb > 1 && x[je] != x[jb] {
				c := float64(je-jb) / (x[je] - x[jb])
				for jj := jb; jj <= je; jj++ {
					t := (x[jj]-x[jb])*c - float64(jj-jb-1)
					if t > maxT {
						maxT = t
					}
				}
			}
			if maxT > dipU {
				dipU = maxT
			}
		}
		dipNew := dipL
		if dipU > dipNew {
			dipNew = dipU
		}
		if dip < dipNew {
			dip = dipNew
		}

		if low == gcm[ig] && high == lcm[ih] {
			break // no improvement possible
		}
		low = gcm[ig]
		high = lcm[ih]
	}
	return dip / float64(2*n)
}

// DipBound returns an upper bound on DipSorted of a sample that adds at
// most b values to n values whose DipSorted was dip, in rounded
// arithmetic that callers inflate. The values added move the empirical
// CDF by at most b/(n+b) in sup norm; the dip, an inf over unimodal G of
// a sup distance to G, is 1-Lipschitz in that norm; and the 1/(2n) floor
// DipSorted applies only falls as n grows (DESIGN §6j).
func DipBound(dip float64, n, b int) float64 {
	return dip + float64(b)/float64(max(n+b, 1))
}

// DipPValueApprox returns a coarse significance level for a dip value
// at sample size n, using the asymptotic √n·Dip scaling against
// critical points interpolated from Hartigan's published table for the
// uniform null. It is intentionally approximate — Foresight ranks by
// the statistic and uses the p-value only for display.
func DipPValueApprox(dip float64, n int) float64 {
	if n < 4 || math.IsNaN(dip) {
		return 1
	}
	z := dip * math.Sqrt(float64(n))
	// Critical points of √n·D under the uniform null (asymptotic):
	// P(√n·D > z). Table pairs {z, p}.
	table := []struct{ z, p float64 }{
		{0.41, 0.99}, {0.46, 0.95}, {0.51, 0.90}, {0.59, 0.70},
		{0.64, 0.50}, {0.71, 0.30}, {0.79, 0.15}, {0.84, 0.10},
		{0.92, 0.05}, {0.99, 0.02}, {1.04, 0.01}, {1.16, 0.002},
	}
	if z <= table[0].z {
		return 1
	}
	for i := 1; i < len(table); i++ {
		if z <= table[i].z {
			t0, t1 := table[i-1], table[i]
			frac := (z - t0.z) / (t1.z - t0.z)
			return t0.p + frac*(t1.p-t0.p)
		}
	}
	return 0.001
}

// BimodalitySeparation returns a simple effect-size style measure of
// bimodality: fit a 2-means split and return the separation
// |µ1−µ2| / (σ1+σ2). Used as a secondary multimodality metric; 0 when
// undefined.
func BimodalitySeparation(xs []float64) float64 {
	clean := sortedCopy(xs)
	if len(clean) < 4 {
		return 0
	}
	assign, centers := KMeans1D(clean, 2, 50)
	var m [2]Moments
	for i, v := range clean {
		m[assign[i]].Add(v)
	}
	if m[0].Count() == 0 || m[1].Count() == 0 {
		return 0
	}
	spread := m[0].StdDev() + m[1].StdDev()
	if spread == 0 || math.IsNaN(spread) {
		return 0
	}
	return math.Abs(centers[0]-centers[1]) / spread
}

// unimodalReference is used by tests: a sorted standard-normal-like
// grid sample, guaranteed unimodal.
func unimodalReference(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		p := (float64(i) + 0.5) / float64(n)
		out[i] = normQuantile(p)
	}
	sort.Float64s(out)
	return out
}

// normQuantile is the Acklam rational approximation to the standard
// normal inverse CDF; max absolute error ≈1.15e−9.
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// NormQuantile exposes the standard normal inverse CDF for data
// generation and sketch sizing.
func NormQuantile(p float64) float64 { return normQuantile(p) }
