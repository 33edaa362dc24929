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
	// Insights lists every scored tuple, ranked by strength.
	Insights []core.Insight `json:"insights"`
}

// Overview computes the global view for one class. Classes of arity 3
// have no overview (the paper makes overviews optional); an error is
// returned. metric "" selects the class default.
func (e *Engine) Overview(className, metric string, approx bool) (*Overview, error) {
	return e.OverviewContext(context.Background(), className, metric, approx)
}

// OverviewContext is Overview with a context; a trace on ctx records
// candidate-enumeration, scoring, and matrix-assembly spans.
// Cancellation is honored between enumeration, scoring, and assembly:
// once ctx is done the overview returns ctx.Err() promptly and the
// engine's cancellation counter increments.
func (e *Engine) OverviewContext(ctx context.Context, className, metric string, approx bool) (*Overview, error) {
	start := time.Now()
	defer e.observeOp("overview", start)
	if err := ctx.Err(); err != nil {
		return nil, e.noteCancel(err)
	}
	c, ok := e.registry.Lookup(className)
	if !ok {
		return nil, fmt.Errorf("query: unknown insight class %q", className)
	}
	if metric != "" && !supportsMetric(c, metric) {
		return nil, fmt.Errorf("query: class %q does not support metric %q", className, metric)
	}
	if c.Arity() > 2 {
		return nil, fmt.Errorf("query: class %q (arity %d) has no overview visualization", className, c.Arity())
	}
	snap := e.snapshot()
	if approx && snap.profile == nil {
		return nil, fmt.Errorf("query: approximate overview requires a preprocessed profile")
	}
	resolvedMetric := metric
	if resolvedMetric == "" {
		resolvedMetric = c.Metrics()[0]
	}
	ov := &Overview{Class: className, Metric: resolvedMetric}

	// Score every candidate through the pass Execute uses, with
	// nothing to prune against (an overview shows every tuple), so
	// SetWorkers parallelizes heat maps and repeated overviews hit the
	// memo. Slots with an empty Class mark tuples whose scoring errored.
	tr := obs.TraceFrom(ctx)
	endEnum := tr.StartSpan("enumerate:" + className)
	cands := c.Candidates(snap.frame)
	endEnum()
	endScore := tr.StartSpan("score:" + className)
	scored, _, err := e.scorePass(ctx, snap, c, cands, approx, resolvedMetric, 0, 0, math.Inf(1))
	endScore()
	if err != nil {
		return nil, e.noteCancel(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, e.noteCancel(err)
	}
	defer tr.StartSpan("assemble:" + className)()

	switch c.Arity() {
	case 1:
		ov.RowAttrs = []string{resolvedMetric}
		ov.Values = [][]float64{nil}
		for i, attrs := range cands {
			in := scored[i]
			ov.ColAttrs = append(ov.ColAttrs, attrs[0])
			if in.Class == "" {
				ov.Values[0] = append(ov.Values[0], math.NaN())
				continue
			}
			ov.Values[0] = append(ov.Values[0], in.Raw)
			ov.Insights = append(ov.Insights, in)
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
			ov.Insights = append(ov.Insights, in)
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
	core.SortInsights(ov.Insights)
	if telem := e.telem.Load(); telem != nil {
		// An overview emits every scored tuple (no top-k), so the
		// sample has no margin and nothing is ever pruned; filtered
		// counts the tuples whose metric was undefined or whose
		// scoring errored.
		telem.Record(telemetry.QuerySample{
			Op:         "overview",
			Generation: snap.gen,
			DurationMS: time.Since(start).Seconds() * 1e3,
			Classes: []telemetry.ClassSample{
				classSample(className, len(cands), 0, len(cands)-len(ov.Insights), ov.Insights, math.NaN()),
			},
		})
	}
	return ov, nil
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
