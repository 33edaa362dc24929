package core

import (
	"fmt"

	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// spec describes a built-in insight class: the Class methods other than
// Candidates, Score and ScoreApprox, and the kind of column each tuple
// position reads. Every built-in class embeds one, and each of its
// scorers starts from onFrame, onProfile or onSample, which take the
// decisions every class shares in one order (arity, then the metric,
// then each position's column in tuple order) and build the insight's
// envelope, so a scorer holds only its formula. Plug-in classes
// implement Class directly.
type spec struct {
	name, desc string
	metrics    []string
	vis        VisKind
	// kinds holds one byte per tuple position: 'n' for a numeric
	// column, 'c' for a categorical one.
	kinds string
}

func (s *spec) Name() string        { return s.name }
func (s *spec) Description() string { return s.desc }
func (s *spec) Arity() int          { return len(s.kinds) }
func (s *spec) Metrics() []string   { return s.metrics }
func (s *spec) VisKind() VisKind    { return s.vis }

// maxArity is the widest tuple a built-in class reads.
const maxArity = 3

// columns are a tuple's columns: num[i] when position i is numeric,
// cat[i] when it is categorical.
type columns struct {
	num [maxArity]*frame.NumericColumn
	cat [maxArity]*frame.CategoricalColumn
}

// profiles are a tuple's column profiles, laid out as columns are.
type profiles struct {
	num [maxArity]*sketch.NumericProfile
	cat [maxArity]*sketch.CategoricalProfile
}

// envelope checks the tuple's arity, resolves metric ("" = default) and
// returns the insight a scorer fills in.
func (s *spec) envelope(attrs []string, metric string, approx bool) (Insight, error) {
	if len(attrs) != len(s.kinds) {
		return Insight{}, fmt.Errorf("core: class %q wants %d attributes, got %v", s.name, len(s.kinds), attrs)
	}
	metric, err := validateMetric(s, metric)
	return Insight{Class: s.name, Metric: metric, Attrs: attrs, Approx: approx, Vis: s.vis}, err
}

// onFrame is the exact path's prologue: the envelope, then the tuple's
// columns of f.
func (s *spec) onFrame(f *frame.Frame, attrs []string, metric string) (Insight, columns, error) {
	var cols columns
	in, err := s.envelope(attrs, metric, false)
	for i := 0; err == nil && i < len(attrs); i++ {
		if s.kinds[i] == 'n' {
			cols.num[i], err = f.Numeric(attrs[i])
		} else {
			cols.cat[i], err = f.Categorical(attrs[i])
		}
	}
	return in, cols, err
}

// onRun is onFrame for candidate k of a run (RunScorer), which must
// share its first attribute with the run's first candidate.
func (s *spec) onRun(f *frame.Frame, run [][]string, k int, metric string) (Insight, columns, error) {
	in, cols, err := s.onFrame(f, run[k], metric)
	if err == nil && run[k][0] != run[0][0] {
		err = fmt.Errorf("core: class %q scores a run over one first attribute, got %v after %v", s.name, run[k], run[0])
	}
	return in, cols, err
}

// onProfile is the sketch path's prologue: the envelope, marked
// approximate, then the tuple's column profiles in p.
func (s *spec) onProfile(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, profiles, error) {
	var ps profiles
	in, err := s.envelope(attrs, metric, true)
	for i := 0; err == nil && i < len(attrs); i++ {
		if s.kinds[i] == 'n' {
			ps.num[i], err = p.NumericProfileOf(attrs[i])
		} else {
			ps.cat[i], err = p.CategoricalProfileOf(attrs[i])
		}
	}
	return in, ps, err
}

// onSample is the approximate score of a statistic with no sketch: the
// class's exact score on p's row sample (sketch.DatasetProfile.Sample),
// marked approximate, once onProfile's checks pass.
func (s *spec) onSample(p *sketch.DatasetProfile, attrs []string, metric string, score func(*frame.Frame, []string, string) (Insight, error)) (Insight, error) {
	if _, _, err := s.onProfile(p, attrs, metric); err != nil {
		return Insight{}, err
	}
	in, err := score(p.Sample(), attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	in.Approx = true
	return in, nil
}

// scored is in with score as both its Score and its Raw value.
func scored(in Insight, score float64, details map[string]float64) Insight {
	in.Score, in.Raw, in.Details = score, score, details
	return in
}

// validateMetric resolves metric ("" = default) against c's metrics and
// returns the resolved name or an error.
func validateMetric(c interface {
	Name() string
	Metrics() []string
}, metric string) (string, error) {
	ms := c.Metrics()
	if metric == "" {
		return ms[0], nil
	}
	for _, m := range ms {
		if m == metric {
			return m, nil
		}
	}
	return "", fmt.Errorf("core: class %q does not support metric %q (have %v)", c.Name(), metric, ms)
}
