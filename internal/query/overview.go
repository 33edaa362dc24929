package query

import (
	"context"
	"fmt"
	"math"
	"time"

	"foresight/internal/core"
	"foresight/internal/obs"
	"foresight/internal/obs/telemetry"
)

// Overview is the paper's optional per-class "global view of insight
// space" (Figure 2): the metric value of every tuple in the class,
// arranged for display as a heat map (arity 2) or a ranked bar list
// (arity 1).
//
// The engine assembles one Overview per (class, metric, backend) and
// generation and hands the same value to every caller: it is shared
// and read-only, slices included.
type Overview struct {
	Class  string `json:"class"`
	Metric string `json:"metric"`
	// RowAttrs and ColAttrs label the matrix axes. For arity-1
	// classes RowAttrs has one pseudo-entry and ColAttrs carries the
	// attribute names.
	RowAttrs []string `json:"row_attrs"`
	ColAttrs []string `json:"col_attrs"`
	// Values holds the *raw* (signed) metric values; NaN marks tuples
	// outside the class or with undefined metrics.
	Values [][]float64 `json:"values"`
	// Symmetric reports that rows and columns index the same attribute
	// set and Values is symmetric (e.g. the pairwise correlation heat
	// map).
	Symmetric bool `json:"symmetric"`
	// Insights lists every tuple with a defined score, ranked by
	// strength.
	Insights []core.Insight `json:"insights"`
}

// Overview computes the global view for one class. Classes of arity 3
// have no overview (the paper makes overviews optional); an error is
// returned. metric "" selects the class default.
func (e *Engine) Overview(className, metric string, approx bool) (*Overview, error) {
	return e.OverviewContext(context.Background(), className, metric, approx)
}

// OverviewContext is Overview with a context; a trace on ctx records
// the spans of building the class view when this is the first request
// of the generation to need it. Once ctx is done the overview returns
// ctx.Err() promptly and the engine's cancellation counter increments.
func (e *Engine) OverviewContext(ctx context.Context, className, metric string, approx bool) (*Overview, error) {
	v, _, err := e.overviewView(ctx, className, metric, approx)
	if err != nil {
		return nil, err
	}
	return v.overview, nil
}

// OverviewJSON returns the bytes a json.Encoder writes for the
// Overview that OverviewContext returns, and the cache generation they
// were computed against. The body is encoded once per generation and
// shared: callers must not modify it. An overview holding a value JSON
// cannot represent fails with a *json.UnsupportedValueError.
func (e *Engine) OverviewJSON(ctx context.Context, className, metric string, approx bool) (body []byte, generation uint64, err error) {
	v, gen, err := e.overviewView(ctx, className, metric, approx)
	if err != nil {
		return nil, 0, err
	}
	body, err = v.overviewJSON()
	return body, gen, err
}

// overviewView is one overview operation: it validates the request,
// fetches (or builds) the class view that holds the overview, and
// records the operation's metrics and telemetry.
func (e *Engine) overviewView(ctx context.Context, className, metric string, approx bool) (*classView, uint64, error) {
	start := time.Now()
	defer e.observeOp("overview", start)
	if err := ctx.Err(); err != nil {
		return nil, 0, e.noteCancel(err)
	}
	c, ok := e.registry.Lookup(className)
	if !ok {
		return nil, 0, fmt.Errorf("query: unknown insight class %q", className)
	}
	if metric != "" && !supportsMetric(c, metric) {
		return nil, 0, fmt.Errorf("query: class %q does not support metric %q", className, metric)
	}
	if c.Arity() > 2 {
		return nil, 0, fmt.Errorf("query: class %q (arity %d) has no overview visualization", className, c.Arity())
	}
	g := e.gen.Load()
	if approx && g.profile == nil {
		return nil, 0, fmt.Errorf("query: approximate overview requires a preprocessed profile")
	}
	if metric == "" {
		metric = c.Metrics()[0]
	}
	// An overview shows every tuple, so it reads the view every other
	// whole-class request of the generation reads.
	v, err := e.viewOf(ctx, obs.TraceFrom(ctx), g, c, metric, approx, true)
	if err != nil {
		return nil, 0, e.noteCancel(err)
	}
	if telem := e.telem.Load(); telem != nil {
		// An overview emits every scored tuple (no top-k), so the
		// sample has no margin and nothing is ever pruned; filtered
		// counts the tuples whose metric was undefined or whose
		// scoring errored.
		telem.Record(telemetry.QuerySample{
			Op:         "overview",
			Generation: g.n,
			DurationMS: time.Since(start).Seconds() * 1e3,
			Classes:    []telemetry.ClassSample{v.sample},
		})
	}
	return v, g.n, nil
}

// assembleOverview arranges the scored slots of an arity-1 or arity-2
// class (one per candidate; an empty Class marks a tuple whose scoring
// errored) for display. ranked, the class's ranking, becomes the
// overview's insight list.
func assembleOverview(c core.Class, metric string, cands [][]string, scored, ranked []core.Insight) *Overview {
	ov := &Overview{Class: c.Name(), Metric: metric, Insights: ranked}
	switch c.Arity() {
	case 1:
		ov.RowAttrs = []string{metric}
		ov.Values = [][]float64{nil}
		for i, attrs := range cands {
			ov.ColAttrs = append(ov.ColAttrs, attrs[0])
			raw := math.NaN()
			if scored[i].Class != "" {
				raw = scored[i].Raw
			}
			ov.Values[0] = append(ov.Values[0], raw)
		}
	case 2:
		rowIdx := map[string]int{}
		colIdx := map[string]int{}
		for _, attrs := range cands {
			if _, ok := rowIdx[attrs[0]]; !ok {
				rowIdx[attrs[0]] = len(ov.RowAttrs)
				ov.RowAttrs = append(ov.RowAttrs, attrs[0])
			}
			if _, ok := colIdx[attrs[1]]; !ok {
				colIdx[attrs[1]] = len(ov.ColAttrs)
				ov.ColAttrs = append(ov.ColAttrs, attrs[1])
			}
		}
		// Pairwise same-kind classes enumerate i<j; unify the axes so
		// the heat map is square and symmetric (Figure 2).
		ov.Symmetric = sameAttrSets(ov.RowAttrs, ov.ColAttrs, cands)
		if ov.Symmetric {
			union := unionOrdered(ov.RowAttrs, ov.ColAttrs)
			ov.RowAttrs, ov.ColAttrs = union, union
			rowIdx, colIdx = indexOf(union), indexOf(union)
		}
		ov.Values = make([][]float64, len(ov.RowAttrs))
		for i := range ov.Values {
			ov.Values[i] = make([]float64, len(ov.ColAttrs))
			for j := range ov.Values[i] {
				ov.Values[i][j] = math.NaN()
			}
		}
		for i, attrs := range cands {
			in := scored[i]
			if in.Class == "" {
				continue
			}
			ri, ci := rowIdx[attrs[0]], colIdx[attrs[1]]
			ov.Values[ri][ci] = in.Raw
			if ov.Symmetric {
				ov.Values[ci][ri] = in.Raw
			}
		}
		if ov.Symmetric {
			// Self-correlation diagonal for display parity with Fig. 2.
			for i := range ov.Values {
				if math.IsNaN(ov.Values[i][i]) {
					ov.Values[i][i] = 1
				}
			}
		}
	}
	return ov
}

// sameAttrSets reports whether the first and second tuple positions
// draw from one shared attribute universe (true for numeric×numeric
// pair classes, false for numeric×categorical).
func sameAttrSets(rows, cols []string, cands [][]string) bool {
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r] = true
	}
	overlap := false
	for _, c := range cols {
		if seen[c] {
			overlap = true
			break
		}
	}
	if !overlap {
		return false
	}
	// Verify no tuple pairs an attribute with itself-kind mismatch;
	// candidates of mixed classes never overlap, so overlap implies a
	// shared universe.
	return len(cands) > 0
}

func unionOrdered(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func indexOf(names []string) map[string]int {
	m := make(map[string]int, len(names))
	for i, s := range names {
		m[s] = i
	}
	return m
}
