package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// stubClass is a minimal Class for registry/bound plumbing tests. It
// deliberately does NOT implement Bounder.
type stubClass struct {
	name    string
	metrics []string
	score   float64
}

func (c *stubClass) Name() string        { return c.name }
func (c *stubClass) Description() string { return "test stub" }
func (c *stubClass) Arity() int          { return 1 }
func (c *stubClass) Metrics() []string   { return c.metrics }
func (c *stubClass) VisKind() VisKind    { return VisHistogram }
func (c *stubClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, col := range f.NumericColumns() {
		out = append(out, []string{col.Name()})
	}
	return out
}
func (c *stubClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	return Insight{Class: c.name, Metric: metric, Attrs: attrs, Score: c.score}, nil
}
func (c *stubClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	return Insight{Class: c.name, Metric: metric, Attrs: attrs, Score: c.score, Approx: true}, nil
}

// boundedStub additionally claims a (possibly unsound) score bound.
type boundedStub struct {
	stubClass
	bound float64
}

func (c *boundedStub) ScoreBound(p *sketch.DatasetProfile, attrs []string, metric string) float64 {
	return c.bound
}

// TestScoreBoundsHold is the positive soundness check behind the
// pruning equivalence guarantee: on a demo dataset (every candidate)
// and on the planted frame (strided sample), no built-in class may
// return a Score or ScoreApprox above its claimed ScoreBound.
func TestScoreBoundsHold(t *testing.T) {
	cases := []struct {
		name     string
		f        *frame.Frame
		perClass int
	}{
		{"oecd-exhaustive", datagen.OECD(0, 42), 0},
		{"planted-sampled", plantedFrame(1200, 11), 48},
	}
	for _, tc := range cases {
		p := sketch.BuildProfile(tc.f, sketch.ProfileConfig{Seed: 11, Spearman: true})
		for _, v := range CheckScoreBounds(NewRegistry(), tc.f, p, tc.perClass) {
			t.Errorf("%s: unsound bound %s/%s %v (%s): score %v > bound %v",
				tc.name, v.Class, v.Metric, v.Attrs, v.Mode, v.Score, v.Bound)
		}
	}
}

// TestCheckScoreBoundsCatchesUnsoundBound is the negative test: a
// class whose bound lies below its own score must be flagged on both
// scoring paths, with the violation carrying enough context to act on.
func TestCheckScoreBoundsCatchesUnsoundBound(t *testing.T) {
	f := plantedFrame(200, 12)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 12})
	reg := NewEmptyRegistry()
	bad := &boundedStub{stubClass{name: "bad", metrics: []string{"m"}, score: 0.9}, 0.5}
	if err := reg.Register(bad); err != nil {
		t.Fatal(err)
	}
	vs := CheckScoreBounds(reg, f, p, 1)
	if len(vs) != 2 {
		t.Fatalf("want exact+approx violations for 1 sampled candidate, got %d: %+v", len(vs), vs)
	}
	modes := map[string]bool{}
	for _, v := range vs {
		modes[v.Mode] = true
		if v.Class != "bad" || v.Metric != "m" || len(v.Attrs) != 1 ||
			v.Score != 0.9 || v.Bound != 0.5 {
			t.Errorf("violation fields wrong: %+v", v)
		}
	}
	if !modes["exact"] || !modes["approx"] {
		t.Errorf("want both scoring paths flagged, got %v", modes)
	}

	// A sound bound (and an undefined +Inf one) must pass silently.
	reg2 := NewEmptyRegistry()
	good := &boundedStub{stubClass{name: "good", metrics: []string{"m"}, score: 0.9}, 0.9}
	unbounded := &boundedStub{stubClass{name: "unb", metrics: []string{"m"}, score: 1e9}, math.Inf(1)}
	for _, c := range []Class{good, unbounded} {
		if err := reg2.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	if vs := CheckScoreBounds(reg2, f, p, 0); len(vs) != 0 {
		t.Errorf("sound/unbounded classes flagged: %+v", vs)
	}
}

// TestSuccessorBoundsHold is the positive half of the successor gate: on
// each demo dataset grown by some of its own rows, no certificate's bound
// lies below the score. A certificate says nothing (+Inf) about a frame
// shorter than its own, and Kendall and the separation metric leave none.
func TestSuccessorBoundsHold(t *testing.T) {
	for _, f := range []*frame.Frame{datagen.OECD(0, 42), datagen.Parkinson(0, 42), datagen.IMDB(0, 42)} {
		grown, err := f.AppendRows(ownRows(f, 0, max(1, f.Rows()/100)), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range CheckSuccessorBounds(NewRegistry(), f, grown, 48) {
			t.Errorf("%s: unsound bound %s/%s %v: score %v > bound %v", f.Name(), v.Class, v.Metric, v.Attrs, v.Score, v.Bound)
		}
	}
	f := datagen.Parkinson(0, 42)
	grown, err := f.AppendRows(ownRows(f, 7, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		c     Class
		attrs []string
		none  string
	}{
		{NewMonotonicClass(), numericPairs(f)[0], "kendall"},
		{NewMultimodalityClass(), numericCandidates(f)[0], "separation"},
	} {
		s := tc.c.(Successor)
		in, cert, err := s.ScoreCertified(grown, tc.attrs, "")
		if err != nil || cert == nil {
			t.Fatalf("%s: %v, certificate %v", tc.c.Name(), err, cert)
		}
		metric := tc.c.Metrics()[0]
		if b := s.SuccessorBound(cert, grown, tc.attrs, metric); !(in.Score <= b) {
			t.Errorf("%s: bound %v on its own frame, below the score %v", tc.c.Name(), b, in.Score)
		}
		if b := s.SuccessorBound(cert, f, tc.attrs, metric); !math.IsInf(b, 1) {
			t.Errorf("%s: bound %v on a shorter frame", tc.c.Name(), b)
		}
		if _, cert, _ := s.ScoreCertified(f, tc.attrs, tc.none); cert != nil {
			t.Errorf("%s/%s left a certificate", tc.c.Name(), tc.none)
		}
	}
}

// unsoundSuccessor is a built-in Successor class whose bound is replaced.
type unsoundSuccessor struct {
	Class
	bound func(cert Certificate, f *frame.Frame) float64
}

func (c *unsoundSuccessor) ScoreCertified(f *frame.Frame, attrs []string, metric string) (Insight, Certificate, error) {
	return c.Class.(Successor).ScoreCertified(f, attrs, metric)
}

func (c *unsoundSuccessor) SuccessorBound(cert Certificate, f *frame.Frame, attrs []string, metric string) float64 {
	return c.bound(cert, f)
}

// TestCheckSuccessorBoundsCatchesUnsoundBound is the negative test: the
// Spearman bound without its b·m'²/4 term and the dip bound without
// b/(n+b) are each caught on a frame grown to need the term, where the
// sound bounds pass.
func TestCheckSuccessorBoundsCatchesUnsoundBound(t *testing.T) {
	// x is 1…6 on rows 0…5 and y 1…6 on rows 5…10, both 0 elsewhere: the
	// tie at 0 leaves the centred ranks lopsided, and ρ ≈ 0.12.
	rng := rand.New(rand.NewSource(3))
	const n = 120
	x, y, u := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		if i < 6 {
			x[i] = float64(i + 1)
		}
		if 5 <= i && i <= 10 {
			y[i] = float64(i - 4)
		}
		u[i] = rng.NormFloat64()
	}
	f := frame.MustNew("unsound", frame.NewNumericColumn("x", x), frame.NewNumericColumn("y", y), frame.NewNumericColumn("u", u))
	grow := func(rows int, rec ...string) *frame.Frame {
		batch := frame.RowBatch{Columns: f.Names()}
		for ; rows > 0; rows-- {
			batch.Records = append(batch.Records, rec)
		}
		grown, err := f.AppendRows(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		return grown
	}
	for _, tc := range []struct {
		sound  Class
		attrs  []string
		grown  *frame.Frame
		broken func(cert Certificate, f *frame.Frame) float64
	}{
		// One row above every other in both columns.
		{NewMonotonicClass(), []string{"x", "y"}, grow(1, "9", "9", "0"), func(cert Certificate, g *frame.Frame) float64 {
			m, b := cert[1], float64(g.Rows())-cert[0]
			e := b/2*math.Sqrt(m)*(math.Sqrt(cert[2])+math.Sqrt(cert[3])) + m*b*b/4
			lx, ly := cert[2]-b*math.Sqrt(m*cert[2]), cert[3]-b*math.Sqrt(m*cert[3])
			return boundSlack((math.Abs(cert[4]) + e) / math.Sqrt(lx*ly))
		}},
		// A second mode of a fifth of the values.
		{NewMultimodalityClass(), []string{"u"}, grow(n/4, "0", "0", "40"), func(cert Certificate, g *frame.Frame) float64 {
			return boundSlack(cert[2])
		}},
	} {
		reg := NewEmptyRegistry()
		if err := reg.Register(tc.sound); err != nil {
			t.Fatal(err)
		}
		if vs := CheckSuccessorBounds(reg, f, tc.grown, 0); len(vs) != 0 {
			t.Errorf("%s: the sound bound flagged: %+v", tc.sound.Name(), vs)
		}
		reg = NewEmptyRegistry()
		if err := reg.Register(&unsoundSuccessor{tc.sound, tc.broken}); err != nil {
			t.Fatal(err)
		}
		vs := CheckSuccessorBounds(reg, f, tc.grown, 0)
		caught := slices.ContainsFunc(vs, func(v BoundViolation) bool { return slices.Equal(v.Attrs, tc.attrs) })
		for _, v := range vs {
			if v.Mode != "successor" || v.Class != tc.sound.Name() || v.Metric != tc.sound.Metrics()[0] || !(v.Score > v.Bound) {
				t.Errorf("violation fields wrong: %+v", v)
			}
		}
		if !caught {
			t.Errorf("%s without its term: violations %+v, want one on %v", tc.sound.Name(), vs, tc.attrs)
		}
	}
}

// TestScoreBoundForNormalization pins the "never prune" conventions:
// non-Bounder classes, a nil profile, and NaN bounds all normalize to
// +Inf so the engine treats them as unprunable.
func TestScoreBoundForNormalization(t *testing.T) {
	f := plantedFrame(100, 13)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 13})
	attrs := []string{f.NumericColumns()[0].Name()}

	plain := &stubClass{name: "plain", metrics: []string{"m"}, score: 1}
	if b := ScoreBoundFor(plain, p, attrs, "m"); !math.IsInf(b, 1) {
		t.Errorf("non-Bounder class: bound %v, want +Inf", b)
	}
	bounded := &boundedStub{stubClass{name: "b", metrics: []string{"m"}, score: 1}, 0.7}
	if b := ScoreBoundFor(bounded, nil, attrs, "m"); !math.IsInf(b, 1) {
		t.Errorf("nil profile: bound %v, want +Inf", b)
	}
	if b := ScoreBoundFor(bounded, p, attrs, "m"); b != 0.7 {
		t.Errorf("finite bound not passed through: %v", b)
	}
	bounded.bound = math.NaN()
	if b := ScoreBoundFor(bounded, p, attrs, "m"); !math.IsInf(b, 1) {
		t.Errorf("NaN bound: %v, want +Inf", b)
	}
}

// TestRegisterRejectsZeroMetrics is the regression test for the
// query-time panic: the engine resolves an unspecified metric to
// Metrics()[0], so a metric-less class must fail at Register, not at
// first query.
func TestRegisterRejectsZeroMetrics(t *testing.T) {
	reg := NewEmptyRegistry()
	if err := reg.Register(&stubClass{name: "nometrics"}); err == nil {
		t.Error("class with no metrics registered without error")
	}
	if err := reg.Register(&stubClass{name: "", metrics: []string{"m"}}); err == nil {
		t.Error("class with empty name registered without error")
	}
	ok := &stubClass{name: "ok", metrics: []string{"m"}}
	if err := reg.Register(ok); err != nil {
		t.Fatalf("valid class rejected: %v", err)
	}
	if err := reg.Register(ok); err == nil {
		t.Error("duplicate name registered without error")
	}
	// The built-ins must all survive their own registration paths.
	if got := len(NewRegistry().Names()); got != 12 {
		t.Errorf("built-in registry has %d classes, want 12", got)
	}
}

// ownRows renders rows [from, from+n) of f as an ingest batch.
func ownRows(f *frame.Frame, from, n int) frame.RowBatch {
	batch := frame.RowBatch{Records: make([][]string, n)}
	for r := range batch.Records {
		for c := 0; c < f.Cols(); c++ {
			batch.Records[r] = append(batch.Records[r], f.Column(c).StringAt(from+r))
		}
	}
	return batch
}

// TestSegmentationSuccessorBound: segmentation's exact score is the same
// with or without its certificate, the certificate bounds the score on
// frames that extend its own, and it says nothing (+Inf) once the stride
// or the categorical's levels change.
func TestSegmentationSuccessorBound(t *testing.T) {
	f := datagen.Parkinson(0, 42)
	for _, c := range []*segmentationClass{NewSegmentationClass(0, 0).(*segmentationClass), NewSegmentationClass(0, 64).(*segmentationClass)} {
		cands := c.Candidates(f)
		grown, err := f.AppendRows(ownRows(f, 0, 5), nil)
		if err != nil {
			t.Fatal(err)
		}
		grown, err = grown.AppendRows(ownRows(f, 100, 3), nil)
		if err != nil {
			t.Fatal(err)
		}
		restrided, err := f.AppendRows(ownRows(f, 0, f.Rows()/4), nil)
		if err != nil {
			t.Fatal(err)
		}
		certified := 0
		for i := 0; i < len(cands); i += 97 {
			attrs := cands[i]
			in, cert, err := c.ScoreCertified(f, attrs, "")
			plain, err2 := c.Score(f, attrs, "")
			if err != nil || err2 != nil || in.Score != plain.Score || in.Raw != plain.Raw {
				t.Fatalf("%v: certified %v (%v), plain %v (%v)", attrs, in, err, plain, err2)
			}
			if cert == nil {
				continue
			}
			certified++
			next, _ := c.Score(grown, attrs, "")
			if b := c.SuccessorBound(cert, grown, attrs, "silhouette"); !(next.Score <= b) {
				t.Errorf("%v: score %v after an append, bound %v", attrs, next.Score, b)
			}
			if c.step(restrided.Rows()) != c.step(f.Rows()) && !math.IsInf(c.SuccessorBound(cert, restrided, attrs, "silhouette"), 1) {
				t.Errorf("%v: a bound across a stride change", attrs)
			}
			batch := ownRows(f, 0, 1)
			batch.Records[0][f.ColumnIndex(attrs[2])] = "a level never seen"
			relevelled, err := f.AppendRows(batch, nil)
			if err != nil {
				t.Fatal(err)
			}
			if b := c.SuccessorBound(cert, relevelled, attrs, "silhouette"); !math.IsInf(b, 1) {
				t.Errorf("%v: bound %v across a new level", attrs, b)
			}
		}
		if certified == 0 {
			t.Fatal("no certificate to check")
		}
	}
}
