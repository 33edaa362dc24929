package sketch

import (
	"fmt"
	"time"

	"foresight/internal/frame"
)

// Incremental extension: the payoff of §3's mergeable sketches. When
// rows are appended to a profiled dataset, a partial profile over
// just the new rows folds into the existing store via Merge — no
// rescan of the old rows. The only global state that cannot extend
// incrementally is rebuilt from the new frame directly: the shared
// row sample and per-column gathers (they index global rows), the
// categorical dictionaries (appends can introduce new labels), and
// rank (Spearman) projections, which are dropped — ranks are a global
// transform of the whole column.

// Clone returns a deep copy of p sharing no mutable state with the
// receiver, so the copy can be extended while readers keep querying
// the original. Sketch RNGs are reseeded deterministically (same
// contract as Save/Load round-trips: queries answer identically;
// future updates remain valid sketch behavior).
func (p *DatasetProfile) Clone() *DatasetProfile {
	out := &DatasetProfile{
		Rows:        p.Rows,
		Numeric:     make(map[string]*NumericProfile, len(p.Numeric)),
		Categorical: make(map[string]*CategoricalProfile, len(p.Categorical)),
		RowSample:   &RowSample{Indexes: append([]int(nil), p.RowSample.Indexes...)},
		Config:      p.Config,
	}
	for name, np := range p.Numeric {
		c := &NumericProfile{
			Name:            np.Name,
			Moments:         np.Moments,
			Quantiles:       kllFromWire(kllToWire(np.Quantiles)),
			Proj:            projectionFromWire(projectionToWire(np.Proj)),
			ProjCenter:      np.ProjCenter,
			Planes:          hyperplaneFromWire(hyperplaneToWire(np.Planes)),
			Sample:          cloneReservoir(np.Sample),
			RowSampleValues: append([]float64(nil), np.RowSampleValues...),
		}
		if np.RankProj != nil {
			c.RankProj = projectionFromWire(projectionToWire(np.RankProj))
			c.RankPlanes = hyperplaneFromWire(hyperplaneToWire(np.RankPlanes))
		}
		out.Numeric[name] = c
	}
	for name, cp := range p.Categorical {
		out.Categorical[name] = &CategoricalProfile{
			Name:           cp.Name,
			Heavy:          spaceSavingFromWire(spaceSavingToWire(cp.Heavy)),
			Distinct:       kmvFromWire(kmvToWire(cp.Distinct)),
			Rows:           cp.Rows,
			RowSampleCodes: append([]int32(nil), cp.RowSampleCodes...),
			Cardinality:    cp.Cardinality,
			Dict:           append([]string(nil), cp.Dict...),
		}
	}
	return out
}

func cloneReservoir(s *Reservoir) *Reservoir {
	out := NewReservoir(s.capacity, s.seed)
	out.items = append(out.items, s.items...)
	out.n = s.n
	return out
}

// Extend returns a new profile covering f, which must extend the
// profiled frame in place: the same columns, with rows [p.Rows,
// f.Rows()) newly appended (Frame.AppendRows produces exactly this
// shape). The new rows are profiled with the partition builder —
// centered on the stored build-time projection centers so the partial
// stays merge-compatible — and folded into a deep copy of p; the
// receiver is never mutated, so concurrent readers holding p keep a
// consistent store. The cost is O(appended rows) plus the copy of p,
// whatever p.Rows is: the directions of the appended rows are drawn
// from their own blocks of the stream (see ProjectColumns), not
// reached by replaying it from row 0. Rank (Spearman) projections are
// dropped from the result: ranks are a global transform that cannot be
// extended row-incrementally.
func (p *DatasetProfile) Extend(f *frame.Frame) (*DatasetProfile, error) {
	defer observeSince("extend", time.Now())
	return p.extend(f, 1)
}

// ExtendSharded is Extend with the delta profile over the appended
// rows built by the sharded data-parallel path (BuildProfileSharded's
// machinery), worthwhile for large batch appends. Shard counts follow
// the uniform convention: 0 or 1 is the sequential delta build —
// identical to Extend — and negative means GOMAXPROCS. Appends
// inside one direction block fall back to the sequential delta
// regardless.
func (p *DatasetProfile) ExtendSharded(f *frame.Frame, shards int) (*DatasetProfile, error) {
	defer observeSince("extend.sharded", time.Now())
	return p.extend(f, resolveShards(shards))
}

func (p *DatasetProfile) extend(f *frame.Frame, shards int) (*DatasetProfile, error) {
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
	centers := make(map[string]float64, len(numeric))
	for _, nc := range numeric {
		np, ok := p.Numeric[nc.Name()]
		if !ok {
			return nil, fmt.Errorf("sketch: extend: no profile for numeric column %q", nc.Name())
		}
		centers[nc.Name()] = np.ProjCenter
	}
	for _, cc := range categorical {
		if _, ok := p.Categorical[cc.Name()]; !ok {
			return nil, fmt.Errorf("sketch: extend: no profile for categorical column %q", cc.Name())
		}
	}

	out := p.Clone()
	// Ranks cannot extend; leaving the stale projections in place would
	// silently answer Spearman queries for the old rows only.
	for _, np := range out.Numeric {
		np.RankProj, np.RankPlanes = nil, nil
	}
	if f.Rows() == old {
		return out, nil
	}

	cfg := out.Config
	cfg.Spearman = false
	var delta *DatasetProfile
	if shards > 1 {
		delta = shardedPartial(f, cfg, old, f.Rows(), centers, shards)
	} else {
		delta = buildPartitionProfile(f, cfg, old, f.Rows(), centers)
	}
	if err := out.Merge(delta); err != nil {
		return nil, err
	}

	// Rebuild the global state that indexes or labels the whole frame.
	out.RowSample = NewRowSample(f.Rows(), cfg.RowSampleSize, cfg.Seed+1)
	for _, nc := range numeric {
		out.Numeric[nc.Name()].RowSampleValues = out.RowSample.GatherFloats(nc.Values())
	}
	for _, cc := range categorical {
		cp := out.Categorical[cc.Name()]
		cp.RowSampleCodes = out.RowSample.GatherCodes(cc.Codes())
		cp.Cardinality = cc.Cardinality()
		cp.Dict = append([]string(nil), cc.Dict()...)
	}
	out.Rows = f.Rows()
	return out, nil
}
