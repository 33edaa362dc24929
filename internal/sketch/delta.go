package sketch

import (
	"fmt"
	"time"

	"foresight/internal/frame"
)

// Incremental extension: the payoff of §3's mergeable sketches. When
// rows are appended to a profiled dataset, a partial profile over
// just the new rows folds into the existing store via Merge — no
// rescan of the old rows. The shared row sample extends too (it is
// algorithm R over row indexes, see rowSampleSlot); only the rank
// (Spearman) projections are dropped — ranks are a global transform of
// the whole column.

// mergeTarget returns the profile Extend folds a delta into: a copy of
// p that owns everything DatasetProfile.Merge writes in place — the
// moments, the KLL compactors, the projection dots, the categorical
// sketches — each copied once. What Merge replaces rather than writes
// (the value reservoir, the sign bits) and what Extend itself replaces
// (the row sample and its gathers) is shared with p until then. Rank
// (Spearman) projections are left out: ranks cannot extend, and stale
// ones would silently answer for the old rows only.
func (p *DatasetProfile) mergeTarget() *DatasetProfile {
	out := &DatasetProfile{
		Rows:        p.Rows,
		Numeric:     make(map[string]*NumericProfile, len(p.Numeric)),
		Categorical: make(map[string]*CategoricalProfile, len(p.Categorical)),
		RowSample:   p.RowSample,
		Config:      p.Config,
	}
	for name, np := range p.Numeric {
		out.Numeric[name] = &NumericProfile{
			Name:            np.Name,
			Moments:         np.Moments,
			Quantiles:       np.Quantiles.Clone(),
			Proj:            &Projection{Dots: append([]float64(nil), np.Proj.Dots...), Rows: np.Proj.Rows, Seed: np.Proj.Seed},
			ProjCenter:      np.ProjCenter,
			Planes:          np.Planes,
			Sample:          np.Sample,
			RowSampleValues: np.RowSampleValues,
		}
	}
	for name, cp := range p.Categorical {
		out.Categorical[name] = &CategoricalProfile{
			Name:           cp.Name,
			Heavy:          cp.Heavy.Clone(),
			Distinct:       cp.Distinct.Clone(),
			Rows:           cp.Rows,
			RowSampleCodes: cp.RowSampleCodes,
			Cardinality:    cp.Cardinality,
			Dict:           cp.Dict,
		}
	}
	return out
}

// Extend returns a new profile covering f, which must extend the
// profiled frame in place: the same columns, with rows [p.Rows,
// f.Rows()) newly appended (Frame.AppendRows produces exactly this
// shape). The new rows are profiled by buildRange — centered on the
// stored build-time projection centers so the partial stays
// merge-compatible — and folded by Merge into mergeTarget's copy of p;
// the shared row sample is offered the new rows and only the slots
// they take are regathered. The receiver is never mutated, so
// concurrent readers holding p keep a consistent store; the result
// shares with it what the batch left alone. The cost is O(appended
// rows) plus one copy of the sketches, whatever p.Rows is, and the
// result is a function of (what Save writes of p, f): a profile
// reloaded from a snapshot extends to the same bytes. Rank (Spearman)
// projections are dropped from the result. With no rows appended the
// result is p itself. The delta and the merge run on p.Config.Workers —
// the row-local sketches beside the projection, each over column
// chunks — and, like a build, give the same bytes at any count; the
// result keeps p's count.
func (p *DatasetProfile) Extend(f *frame.Frame) (*DatasetProfile, error) {
	defer observeSince("extend", time.Now())
	old := p.Rows
	if f.Rows() < old {
		return nil, fmt.Errorf("sketch: extend: frame has %d rows, profile covers %d", f.Rows(), old)
	}
	numeric := f.NumericColumns()
	categorical := f.CategoricalColumns()
	if len(numeric) != len(p.Numeric) || len(categorical) != len(p.Categorical) {
		return nil, fmt.Errorf("sketch: extend: frame has %d numeric + %d categorical columns, profile has %d + %d",
			len(numeric), len(categorical), len(p.Numeric), len(p.Categorical))
	}
	centers := make([]float64, len(numeric))
	for i, nc := range numeric {
		np, ok := p.Numeric[nc.Name()]
		if !ok {
			return nil, fmt.Errorf("sketch: extend: no profile for numeric column %q", nc.Name())
		}
		centers[i] = np.ProjCenter
	}
	for _, cc := range categorical {
		if _, ok := p.Categorical[cc.Name()]; !ok {
			return nil, fmt.Errorf("sketch: extend: no profile for categorical column %q", cc.Name())
		}
	}

	if f.Rows() == old {
		return p, nil
	}

	copyStart := time.Now()
	out := p.mergeTarget()
	observeSince("extend.copy", copyStart)

	cfg := out.Config
	cfg.Spearman = false
	deltaStart := time.Now()
	delta := buildRange(f, cfg, old, f.Rows(), centers)
	observeSince("extend.delta", deltaStart)

	mergeStart := time.Now()
	if err := out.Merge(delta); err != nil {
		return nil, err
	}
	observeSince("extend.merge", mergeStart)

	// The state that indexes or labels the whole frame: offer the new
	// rows to the row sample and regather the slots they took; take the
	// dictionaries (appends can introduce labels) from the frame.
	sampleStart := time.Now()
	var slots []int
	out.RowSample, slots = p.RowSample.extended(old, f.Rows(), cfg.RowSampleSize, cfg.Seed+1)
	idx := out.RowSample.Indexes
	for _, nc := range numeric {
		np := out.Numeric[nc.Name()]
		np.RowSampleValues = regather(np.RowSampleValues, nc.Values(), idx, slots)
	}
	for _, cc := range categorical {
		cp := out.Categorical[cc.Name()]
		cp.RowSampleCodes = regather(cp.RowSampleCodes, cc.Codes(), idx, slots)
		cp.Cardinality = cc.Cardinality()
		cp.Dict = cc.Dict()
	}
	observeSince("extend.rowsample", sampleStart)
	out.Rows = f.Rows()
	return out, nil
}

// regather returns a column's gather at the row sample idx, given its
// gather at the sample idx extends and the slots the extension wrote:
// a copy of old with those slots read afresh from col, or old itself
// when there are none.
func regather[T any](old, col []T, idx, slots []int) []T {
	if len(slots) == 0 {
		return old
	}
	out := make([]T, len(idx))
	copy(out, old)
	for _, j := range slots {
		out[j] = col[idx[j]]
	}
	return out
}
