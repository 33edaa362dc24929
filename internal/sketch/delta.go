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
// moments, the projection dots, the distinct-count sketch — each copied
// once. What Merge replaces rather than writes (the quantile sketch,
// the heavy hitters' counters, the sign bits) and
// what Extend itself replaces (the row sample and its gathers) is
// shared with p until then; Merge only reads p's. Rank (Spearman)
// projections are left out: ranks cannot extend, and stale ones would
// silently answer for the old rows only.
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
			Name:       np.Name,
			Moments:    np.Moments,
			Quantiles:  np.Quantiles,
			Proj:       &Projection{Dots: append([]float64(nil), np.Proj.Dots...), Rows: np.Proj.Rows, Seed: np.Proj.Seed},
			ProjCenter: np.ProjCenter,
			Planes:     np.Planes,
			gather:     np.gather,
		}
	}
	for name, cp := range p.Categorical {
		heavy := *cp.Heavy
		out.Categorical[name] = &CategoricalProfile{
			Name:        cp.Name,
			Heavy:       &heavy,
			Distinct:    cp.Distinct.Clone(),
			Rows:        cp.Rows,
			codes:       cp.codes,
			Cardinality: cp.Cardinality,
			Dict:        cp.Dict,
		}
	}
	return out
}

// deltaScratch is the working store of one Extend: the partial profile
// of its batch (the delta), every column's sketches with the arrays and
// maps they grew, and the column and centre lists that build it. It
// lives in a free list between extensions, and each Extend takes its
// own, so siblings extended from one receiver at once never share one. The
// merge keeps nothing of it — a merged KLL (KLL.merged), projection and
// categorical sketch copy what they take from the delta — so it goes
// back as soon as the batch is merged.
type deltaScratch struct {
	profile     DatasetProfile
	numeric     []*numericPartial
	categorical []*categoricalPartial
	// cols and codes are windows of each column at the range's rows.
	cols    [][]float64
	codes   [][]int32
	projs   []*Projection
	centers []float64
}

// deltaScratches keeps the scratch of the extensions that ran; one
// Extend at a time (an ingest stream) reuses one.
var deltaScratches = freeList[deltaScratch]{max: 2}

// partial returns ds's partial profile, emptied and set to rows rows
// under cfg, and its first n numeric and m categorical column
// partials, to be reset.
func (ds *deltaScratch) partial(cfg ProfileConfig, rows, n, m int) (*DatasetProfile, []*numericPartial, []*categoricalPartial) {
	for len(ds.numeric) < n {
		ds.numeric = append(ds.numeric, new(numericPartial))
	}
	for len(ds.categorical) < m {
		ds.categorical = append(ds.categorical, new(categoricalPartial))
	}
	p := &ds.profile
	if p.Numeric == nil {
		p.Numeric = make(map[string]*NumericProfile, n)
		p.Categorical = make(map[string]*CategoricalProfile, m)
	}
	clear(p.Numeric)
	clear(p.Categorical)
	p.Rows, p.Config = rows, cfg
	return p, ds.numeric[:n], ds.categorical[:m]
}

// release gives ds back, its arrays and maps poisoned first when the
// tests ask.
func (ds *deltaScratch) release() {
	// Kept scratch must not keep the frame's columns alive.
	clear(ds.cols)
	clear(ds.codes)
	clear(ds.projs)
	if poisonScratch.Load() {
		for _, c := range ds.numeric {
			for _, level := range c.kll.compactors[:cap(c.kll.compactors)] {
				poisonFloats(level[:cap(level)])
			}
			poisonFloats(c.proj.Dots[:cap(c.proj.Dots)])
		}
		for _, c := range ds.categorical {
			c.heavy.counters["\x00poison"] = &ssCounter{item: "\x00poison", count: 1 << 40}
			for i := range c.distinct.hashes {
				c.distinct.hashes[i] = 1
			}
			c.distinct.seen[1] = struct{}{}
		}
	}
	deltaScratches.put(ds)
}

// Extend returns a new profile covering f, which must extend the
// profiled frame in place: the same columns, with rows [p.Rows,
// f.Rows()) newly appended (Frame.AppendRows produces exactly this
// shape). The new rows are profiled by buildRange into a delta held in
// scratch (deltaScratch) — centered on the stored build-time projection
// centers so the partial stays merge-compatible — and folded by Merge
// into mergeTarget's copy of p; the shared row sample is offered the
// new rows and records the slots they take, and every column's gather
// becomes f's column at it, gathered by the first reader. The receiver
// is never mutated, so concurrent readers holding p keep a consistent
// store, and sibling extensions of p may run at once; the result shares
// with p what the batch left alone. The cost is O(appended rows) plus
// one copy of the sketches the merge writes, whatever p.Rows is, and
// what Extend allocates is the result: the delta, the quantile merge's
// working levels and the projection's direction block are scratch
// kept from the extensions before, and the sample arrays are built by
// their first reader. The result is a function of (what Save writes of
// p, f): a profile reloaded from a snapshot extends to the same bytes.
// Rank (Spearman) projections are dropped from the result. With no rows
// appended the result is p itself. The delta and the merge run on
// p.Config.Workers — the row-local sketches beside the projection, each
// over column chunks — and, like a build, give the same bytes at any
// count; the result keeps p's count.
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
	for _, nc := range numeric {
		if _, ok := p.Numeric[nc.Name()]; !ok {
			return nil, fmt.Errorf("sketch: extend: no profile for numeric column %q", nc.Name())
		}
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
	ds := deltaScratches.get()
	ds.centers = ds.centers[:0]
	for _, nc := range numeric {
		ds.centers = append(ds.centers, p.Numeric[nc.Name()].ProjCenter)
	}
	delta := buildRange(f, cfg, old, f.Rows(), ds.centers, ds)
	observeSince("extend.delta", deltaStart)

	mergeStart := time.Now()
	err := out.Merge(delta)
	ds.release()
	if err != nil {
		return nil, err
	}
	observeSince("extend.merge", mergeStart)

	// The state that indexes or labels the whole frame: offer the new
	// rows to the row sample and record the slots they took; each
	// column's gather becomes the column at the new indexes, gathered by
	// its first reader (unchanged when the batch took no slot); take the
	// dictionaries (appends can introduce labels) from the frame.
	sampleStart := time.Now()
	ws := rowSampleWrites(old, f.Rows(), cfg.RowSampleSize, cfg.Seed+1)
	n := min(f.Rows(), cfg.RowSampleSize)
	out.RowSample = &RowSample{indexes: p.RowSample.indexes.extended(n, ws)}
	for _, nc := range numeric {
		if len(ws) > 0 {
			out.Numeric[nc.Name()].gather = gatherAt(out.RowSample, nc.At)
		}
	}
	for _, cc := range categorical {
		cp := out.Categorical[cc.Name()]
		if len(ws) > 0 {
			cp.codes = gatherAt(out.RowSample, cc.CodeAt)
		}
		cp.Cardinality = cc.Cardinality()
		cp.Dict = cc.Dict()
	}
	observeSince("extend.rowsample", sampleStart)
	out.Rows = f.Rows()
	return out, nil
}
