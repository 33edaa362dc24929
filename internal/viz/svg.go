// Package viz renders Foresight's insight visualizations (paper §2.2:
// histogram, box-and-whisker, Pareto chart, scatter with best-fit
// line) and the overview correlogram of Figure 2, as self-contained
// SVG documents and as ASCII panels for terminals. The renderers take
// plain data slices so they stay decoupled from the frame and core
// packages; render.go adapts an (Insight, Frame) pair onto them.
package viz

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// svgBuilder accumulates SVG elements with a fixed canvas. It appends
// into one byte slice, numbers through appendFixed: a scatter draws a
// thousand and more circles, and fmt would parse each element's format
// and print each coordinate through strconv's general path.
type svgBuilder struct {
	w, h int
	b    []byte
}

func newSVG(w, h int) *svgBuilder {
	s := &svgBuilder{w: w, h: h, b: make([]byte, 0, 4096)}
	s.b = append(s.b, `<svg xmlns="http://www.w3.org/2000/svg"`...)
	s.str("width", strconv.Itoa(w))
	s.str("height", strconv.Itoa(h))
	s.str("viewBox", "0 0 "+strconv.Itoa(w)+" "+strconv.Itoa(h))
	s.str("font-family", "sans-serif")
	s.b = append(s.b, `><rect width="100%" height="100%" fill="white"/>`...)
	return s
}

// attr appends ` name="v"`, v printed as fmt's %.<prec>f prints it.
func (s *svgBuilder) attr(name string, v float64, prec int) {
	s.b = append(s.b, ' ')
	s.b = append(s.b, name...)
	s.b = append(s.b, `="`...)
	s.b = appendFixed(s.b, v, prec)
	s.b = append(s.b, '"')
}

// str appends ` name="v"`, v as given.
func (s *svgBuilder) str(name, v string) {
	s.b = append(s.b, ' ')
	s.b = append(s.b, name...)
	s.b = append(s.b, `="`...)
	s.b = append(s.b, v...)
	s.b = append(s.b, '"')
}

func (s *svgBuilder) rect(x, y, w, h float64, fill string, opacity float64) {
	s.b = append(s.b, "<rect"...)
	s.attr("x", x, 2)
	s.attr("y", y, 2)
	s.attr("width", w, 2)
	s.attr("height", h, 2)
	s.str("fill", fill)
	s.attr("fill-opacity", opacity, 3)
	s.b = append(s.b, "/>"...)
}

func (s *svgBuilder) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	s.b = append(s.b, "<line"...)
	s.attr("x1", x1, 2)
	s.attr("y1", y1, 2)
	s.attr("x2", x2, 2)
	s.attr("y2", y2, 2)
	s.str("stroke", stroke)
	s.attr("stroke-width", width, 2)
	s.b = append(s.b, "/>"...)
}

func (s *svgBuilder) circle(cx, cy, r float64, fill string, opacity float64) {
	s.b = append(s.b, "<circle"...)
	s.attr("cx", cx, 2)
	s.attr("cy", cy, 2)
	s.attr("r", r, 2)
	s.str("fill", fill)
	s.attr("fill-opacity", opacity, 3)
	s.b = append(s.b, "/>"...)
}

func (s *svgBuilder) text(x, y float64, size int, anchor, content string) {
	s.b = append(s.b, "<text"...)
	s.attr("x", x, 2)
	s.attr("y", y, 2)
	s.str("font-size", strconv.Itoa(size))
	s.str("text-anchor", anchor)
	s.b = append(s.b, '>')
	s.b = append(s.b, escape(content)...)
	s.b = append(s.b, "</text>"...)
}

func (s *svgBuilder) textRotated(x, y float64, size int, angle float64, content string) {
	s.b = append(s.b, "<text"...)
	s.attr("x", x, 2)
	s.attr("y", y, 2)
	s.str("font-size", strconv.Itoa(size))
	s.b = append(s.b, ` text-anchor="end" transform="rotate(`...)
	s.b = appendFixed(s.b, angle, 1)
	s.b = append(s.b, ' ')
	s.b = appendFixed(s.b, x, 2)
	s.b = append(s.b, ' ')
	s.b = appendFixed(s.b, y, 2)
	s.b = append(s.b, `)">`...)
	s.b = append(s.b, escape(content)...)
	s.b = append(s.b, "</text>"...)
}

func (s *svgBuilder) String() string {
	return string(append(s.b, "</svg>"...))
}

// pow10 holds 10^p for the precisions appendFixed has a fast path for;
// each is exact in binary.
var pow10 = [...]float64{1, 10, 100, 1000}

// appendFixed appends v with prec decimals, the bytes
// strconv.AppendFloat(dst, v, 'f', prec, 64) appends — what fmt's
// %.<prec>f prints.
//
// For prec 1, 2 and 3 it takes a fast path. strconv prints the decimal
// nearest to the exact value of v: the integer nearest to the real
// number v·10^p, with its last p digits after the point. The product
// a = |v|·10^p computed in float64 is the real product rounded once, so
// it is off by at most half an ulp; below 2^33 an ulp is at most 2^-20,
// so a is off by at most 2^-21 < 1e-6. If a lies more than 1e-6 from
// every half-integer, the real product lies on the same side of each of
// them, so both round to the same integer n = math.Round(a) (a − ⌊a⌋ is
// exact: it keeps a's own fraction bits). Then v prints as n's digits
// with a point before the last p, and a minus sign when v's sign bit is
// set, as strconv writes "-0.00" for a negative v that rounds to zero.
// Anything else — a near-tie, a large value, a NaN or an infinity —
// goes to strconv.
func appendFixed(dst []byte, v float64, prec int) []byte {
	if prec < 1 || prec >= len(pow10) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	a := math.Abs(v) * pow10[prec]
	if !(a < 1<<33) || math.Abs(a-math.Floor(a)-0.5) <= 1e-6 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	if math.Signbit(v) {
		dst = append(dst, '-')
	}
	n := uint64(math.Round(a))
	unit := uint64(pow10[prec])
	dst = strconv.AppendUint(dst, n/unit, 10)
	dst = append(dst, '.')
	frac := n % unit
	for d := unit / 10; d > 0; d /= 10 {
		dst = append(dst, byte('0'+frac/d%10))
	}
	return dst
}

func escape(t string) string {
	t = strings.ReplaceAll(t, "&", "&amp;")
	t = strings.ReplaceAll(t, "<", "&lt;")
	t = strings.ReplaceAll(t, ">", "&gt;")
	return t
}

// scale maps [lo, hi] → [a, b] linearly; degenerate domains map to
// the midpoint.
type scale struct{ lo, hi, a, b float64 }

func newScale(lo, hi, a, b float64) scale {
	return scale{lo, hi, a, b}
}

func (s scale) at(v float64) float64 {
	if s.hi == s.lo {
		return (s.a + s.b) / 2
	}
	return s.a + (v-s.lo)/(s.hi-s.lo)*(s.b-s.a)
}

// Palette used across charts: a colorblind-safe pair plus accents.
const (
	colorPrimary  = "#4477AA"
	colorAccent   = "#EE6677"
	colorNeutral  = "#BBBBBB"
	colorPositive = "#4477AA"
	colorNegative = "#EE6677"
)

// categoryColor returns a distinct fill for group g.
func categoryColor(g int) string {
	palette := []string{"#4477AA", "#EE6677", "#228833", "#CCBB44", "#66CCEE", "#AA3377", "#BBBBBB", "#000000"}
	if g < 0 {
		return colorNeutral
	}
	return palette[g%len(palette)]
}

// fmtNum renders a number compactly for labels.
func fmtNum(v float64) string {
	if math.IsNaN(v) {
		return "–"
	}
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
