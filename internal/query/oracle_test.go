package query

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// The brute-force reference the equivalence tests compare the engine
// against: every candidate scored in a plain loop — no memo, no
// bounds, no pool — then filtered and ranked by the paper's rule.

// oracleKey names one brute-force pass. Frames and profiles are
// immutable and swapped whole on ingest, so their pointers identify
// the data.
type oracleKey struct {
	f      *frame.Frame
	p      *sketch.DatasetProfile
	class  string
	metric string
	approx bool
}

// oracleRuns keeps each brute-force pass so a query matrix over one
// dataset scores it once per (class, metric, backend), not per query.
var oracleRuns = map[oracleKey][]core.Insight{}

// oracleScores scores every candidate of c, dropping errored and
// undefined (NaN) scores, and returns those keep admits.
func oracleScores(e *Engine, c core.Class, metric string, approx bool, keep func(attrs []string) bool) []core.Insight {
	key := oracleKey{e.Frame(), e.Profile(), c.Name(), metric, approx}
	all, ok := oracleRuns[key]
	if !ok {
		for _, attrs := range c.Candidates(key.f) {
			var in core.Insight
			var err error
			if approx {
				in, err = c.ScoreApprox(key.p, attrs, metric)
			} else {
				in, err = c.Score(key.f, attrs, metric)
			}
			if err == nil && !math.IsNaN(in.Score) {
				all = append(all, in)
			}
		}
		oracleRuns[key] = all
	}
	var ins []core.Insight
	for _, in := range all {
		if keep(in.Attrs) {
			ins = append(ins, in)
		}
	}
	return ins
}

// oracleExecute is the reference for Engine.ExecuteContext.
func oracleExecute(t *testing.T, e *Engine, q Query) []Result {
	t.Helper()
	classes, _, err := e.resolveClasses(q.Classes)
	if err != nil {
		t.Fatal(err)
	}
	maxScore := q.MaxScore
	if maxScore == 0 {
		maxScore = math.Inf(1)
	}
	var out []Result
	for _, c := range classes {
		metric := q.Metric
		if metric == "" {
			metric = c.Metrics()[0]
		} else if !supportsMetric(c, metric) {
			continue
		}
		var ins []core.Insight
		for _, in := range oracleScores(e, c, metric, q.Approx, func(attrs []string) bool {
			return containsAll(attrs, q.Fixed) &&
				(q.Semantic == frame.SemanticNone || anySemantic(e.Frame(), attrs, q.Semantic))
		}) {
			if in.Score >= q.MinScore && in.Score <= maxScore {
				ins = append(ins, in)
			}
		}
		if ins = core.TopK(ins, q.K); len(ins) > 0 {
			out = append(out, Result{Class: c.Name(), Metric: metric, Insights: ins})
		}
	}
	return out
}

// oracleOverview checks ov against the reference for Engine.OverviewContext:
// every cell against the oracle's score of the tuple it indexes.
func oracleOverview(t *testing.T, label string, e *Engine, ov *Overview, approx bool) {
	t.Helper()
	c, _ := e.registry.Lookup(ov.Class)
	want := oracleScores(e, c, ov.Metric, approx, func([]string) bool { return true })
	if len(want) == 0 {
		t.Errorf("%s: the oracle scores no tuple", label)
	}
	checkOverviewCells(t, label, ov, want)
}

// checkOverviewCells compares every cell of ov, bit for bit, with what
// want, the tuples of its class that score a defined value, puts
// there: a tuple's Raw in the cell its attributes index (in both cells
// of a symmetric matrix), 1 on a symmetric diagonal unless the metric
// is one (mi, mutualinfo) under which an attribute's association with
// itself is its entropy, and NaN everywhere else.
func checkOverviewCells(t *testing.T, label string, ov *Overview, want []core.Insight) {
	t.Helper()
	rows, cols := indexOf(ov.RowAttrs), indexOf(ov.ColAttrs)
	cells := make([][]float64, len(ov.RowAttrs))
	for i := range cells {
		cells[i] = make([]float64, len(ov.ColAttrs))
		for j := range cells[i] {
			cells[i][j] = math.NaN()
			if ov.Symmetric && i == j && ov.Metric != "mi" && ov.Metric != "mutualinfo" {
				cells[i][j] = 1
			}
		}
	}
	for _, in := range want {
		r, c, ok := 0, 0, false
		if len(in.Attrs) == 1 {
			c, ok = cols[in.Attrs[0]]
		} else if r, ok = rows[in.Attrs[0]]; ok {
			c, ok = cols[in.Attrs[1]]
		}
		if !ok {
			t.Errorf("%s: %v is on no axis", label, in.Attrs)
			continue
		}
		cells[r][c] = in.Raw
		if ov.Symmetric {
			cells[c][r] = in.Raw
		}
	}
	if len(ov.Values) != len(cells) {
		t.Fatalf("%s: %d rows, want %d", label, len(ov.Values), len(cells))
	}
	for i, row := range cells {
		if len(ov.Values[i]) != len(row) {
			t.Fatalf("%s: row %d has %d cells, want %d", label, i, len(ov.Values[i]), len(row))
		}
		for j, v := range row {
			if got := ov.Values[i][j]; math.Float64bits(got) != math.Float64bits(v) && !(math.IsNaN(got) && math.IsNaN(v)) {
				t.Errorf("%s: cell (%s, %s) = %v, want %v", label, ov.RowAttrs[i], ov.ColAttrs[j], ov.Values[i][j], v)
			}
		}
	}
}

// oracleNeighborhood is the reference for Engine.NeighborhoodContext: sort by
// (similarity, strength, key), then truncate.
func oracleNeighborhood(t *testing.T, e *Engine, focus core.Insight, classes []string, k int, approx bool) []core.Insight {
	t.Helper()
	all := []core.Insight{}
	for _, r := range oracleExecute(t, e, Query{Classes: classes, Approx: approx}) {
		for _, in := range r.Insights {
			if in.Key() != focus.Key() {
				all = append(all, in)
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if sa, sb := Similarity(focus, a), Similarity(focus, b); sa != sb {
			return sa > sb
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Key() < b.Key()
	})
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

// insightsEqual compares two rankings bit-for-bit, NaN details
// included (reflect.DeepEqual would call NaN cells unequal).
func insightsEqual(a, b []core.Insight) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !insightEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// oracleRecommendations is the reference for Session.RecommendationsKContext:
// per class, every insight ordered by (blended score desc, key asc),
// then cut at k.
func oracleRecommendations(t *testing.T, s *Session, k int) []Result {
	t.Helper()
	var want []Result
	for _, r := range oracleExecute(t, s.engine, Query{Approx: s.Approx}) {
		ranked := append([]core.Insight(nil), r.Insights...)
		blended := func(in core.Insight) float64 {
			return in.Score / r.Insights[0].Score * (s.Blend + (1-s.Blend)*s.relevance(in.Attrs))
		}
		if len(s.Focus) > 0 && r.Insights[0].Score > 0 {
			sort.SliceStable(ranked, func(i, j int) bool {
				if a, b := blended(ranked[i]), blended(ranked[j]); a != b {
					return a > b
				}
				return ranked[i].Key() < ranked[j].Key()
			})
		}
		if k > 0 && k < len(ranked) {
			ranked = ranked[:k]
		}
		want = append(want, Result{Class: r.Class, Metric: r.Metric, Insights: ranked})
	}
	return want
}

// TestRecommendationsMatchSortThenTruncate pins the carousel rank
// stage to its definition, focused and unfocused, for k below, at and
// beyond the class sizes.
func TestRecommendationsMatchSortThenTruncate(t *testing.T) {
	e := newTestEngine(t, 600, 17)
	s := NewSession(e, 5, false)
	all := oracleExecute(t, e, Query{})
	for _, focus := range [][]core.Insight{nil, {all[0].Insights[0], all[len(all)-1].Insights[1]}} {
		s.Focus = focus
		for _, k := range []int{1, 3, 5, 21, 1000} {
			got, err := s.RecommendationsKContext(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleRecommendations(t, s, k); !reflect.DeepEqual(got, want) {
				t.Errorf("focus %d k=%d: carousels differ from sort-then-truncate", len(focus), k)
			}
		}
	}
}
