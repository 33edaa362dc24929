package sketch

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Profile persistence: a DatasetProfile serializes to a stream so the
// preprocessing pass (paper §3) runs once and later exploration
// sessions — possibly in different processes — reload the sketch
// store instead of rescanning the data. The format is
// encoding/gob over explicit wire structs, versioned for forward
// compatibility.
//
// Persisted sketches answer queries identically to the originals, and
// take future updates identically too: their coins are a function of
// (seed, count) — see coin — and both are on the wire, so Extend of a
// reloaded profile saves to the bytes Extend of the original would.

// profileWireVersion guards the serialized layout and the meaning of
// its numbers. Version 2 added NumericProfile.ProjCenter (the
// build-time projection-centering mean, required for incremental
// extension). Version 3 has version 2's layout but its dots are drawn
// from the per-block direction stream (fillDirections): a version-2
// store still answers queries, but extending it would add dots along
// different directions, so it is refused rather than converted. A
// version-3 store written while each numeric column also kept a value
// reservoir carries that sample and its size, in fields the decoder
// skips: every other field means what it meant, so it loads.
const profileWireVersion = 3

// ErrProfileVersion is returned (wrapped) by LoadProfile for a store
// written under another profileWireVersion. The data it was built from
// is what to keep; the store itself must be rebuilt.
var ErrProfileVersion = errors.New("sketch: unsupported profile version")

type kllWire struct {
	K          int
	Seed       int64
	N          uint64
	Compactors [][]float64
}

type spaceSavingWire struct {
	Capacity int
	N        uint64
	Items    []HeavyHitter
	// EvictBound carries the untracked-item bound across persistence;
	// dropping it would silently weaken UntrackedBound after a reload.
	// Older blobs without the field decode to zero, matching their
	// pre-bound semantics (gob tolerates the added field both ways).
	EvictBound uint64
}

type kmvWire struct {
	K      int
	N      uint64
	Hashes []uint64
}

type projectionWire struct {
	Dots []float64
	Rows int
	Seed int64
}

type hyperplaneWire struct {
	Bits []uint64
	K    int
	Seed int64
}

type numericProfileWire struct {
	Name            string
	Moments         Moments
	Quantiles       kllWire
	Proj            projectionWire
	ProjCenter      float64
	Planes          hyperplaneWire
	HasRank         bool
	RankProj        projectionWire
	RankPlanes      hyperplaneWire
	RowSampleValues []float64
}

type categoricalProfileWire struct {
	Name           string
	Heavy          spaceSavingWire
	Distinct       kmvWire
	Rows           uint64
	RowSampleCodes []int32
	Cardinality    int
	Dict           []string
}

type profileWire struct {
	Version     int
	Rows        int
	Config      ProfileConfig
	RowSample   []int
	Numeric     []numericProfileWire
	Categorical []categoricalProfileWire
}

func kllToWire(s *KLL) kllWire {
	w := kllWire{K: s.k, Seed: s.seed, N: s.n, Compactors: make([][]float64, len(s.compactors))}
	for i, c := range s.compactors {
		w.Compactors[i] = append([]float64(nil), c...)
	}
	return w
}

func kllFromWire(w kllWire) *KLL {
	s := NewKLL(w.K, w.Seed)
	s.n = w.N
	s.compactors = make([][]float64, len(w.Compactors))
	for i, c := range w.Compactors {
		s.compactors[i] = append([]float64(nil), c...)
	}
	if len(s.compactors) == 0 {
		s.compactors = [][]float64{nil}
	}
	s.maxSize = 0
	for h := range s.compactors {
		s.maxSize += s.capacity(h)
	}
	s.recount()
	return s
}

func spaceSavingToWire(s *SpaceSaving) spaceSavingWire {
	return spaceSavingWire{Capacity: s.capacity, N: s.n, Items: s.Top(0), EvictBound: s.evictBound}
}

func spaceSavingFromWire(w spaceSavingWire) *SpaceSaving {
	// The capacity on the wire is outside bytes: the map is sized from
	// the counters that are there, so a stated capacity costs nothing
	// until that many items arrive.
	s := &SpaceSaving{capacity: w.Capacity, counters: make(map[string]*ssCounter, len(w.Items)), n: w.N, evictBound: w.EvictBound}
	if s.capacity <= 0 {
		s.capacity = defaultSpaceSavingCapacity
	}
	for _, h := range w.Items {
		s.counters[h.Item] = &ssCounter{item: h.Item, count: h.Count, err: h.Err}
	}
	return s
}

func kmvToWire(s *KMV) kmvWire {
	return kmvWire{K: s.k, N: s.n, Hashes: append([]uint64(nil), s.hashes...)}
}

func kmvFromWire(w kmvWire) *KMV {
	s := NewKMV(w.K)
	s.n = w.N
	s.hashes = append([]uint64(nil), w.Hashes...)
	for _, h := range s.hashes {
		s.seen[h] = struct{}{}
	}
	return s
}

func projectionToWire(p *Projection) projectionWire {
	if p == nil {
		return projectionWire{}
	}
	return projectionWire{Dots: append([]float64(nil), p.Dots...), Rows: p.Rows, Seed: p.Seed}
}

func projectionFromWire(w projectionWire) *Projection {
	return &Projection{Dots: append([]float64(nil), w.Dots...), Rows: w.Rows, Seed: w.Seed}
}

func hyperplaneToWire(h *Hyperplane) hyperplaneWire {
	if h == nil {
		return hyperplaneWire{}
	}
	return hyperplaneWire{Bits: append([]uint64(nil), h.bits...), K: h.k, Seed: h.seed}
}

func hyperplaneFromWire(w hyperplaneWire) *Hyperplane {
	return &Hyperplane{bits: append([]uint64(nil), w.Bits...), k: w.K, seed: w.Seed}
}

// Save serializes the profile to w. The bytes are a function of the
// sketches alone: Config.Workers, which describes the process that
// built them, is written as 0.
func (p *DatasetProfile) Save(w io.Writer) error {
	wire := profileWire{
		Version:   profileWireVersion,
		Rows:      p.Rows,
		Config:    p.Config,
		RowSample: p.RowSample.Indexes(),
	}
	wire.Config.Workers = 0
	// Deterministic column order for stable output.
	for _, name := range sortedProfileNames(p) {
		if np, ok := p.Numeric[name]; ok {
			nw := numericProfileWire{
				Name:            np.Name,
				Moments:         np.Moments,
				Quantiles:       kllToWire(np.Quantiles),
				Proj:            projectionToWire(np.Proj),
				ProjCenter:      np.ProjCenter,
				Planes:          hyperplaneToWire(np.Planes),
				RowSampleValues: np.gather.get(),
			}
			if np.RankProj != nil {
				nw.HasRank = true
				nw.RankProj = projectionToWire(np.RankProj)
				nw.RankPlanes = hyperplaneToWire(np.RankPlanes)
			}
			wire.Numeric = append(wire.Numeric, nw)
			continue
		}
		cp := p.Categorical[name]
		wire.Categorical = append(wire.Categorical, categoricalProfileWire{
			Name:           cp.Name,
			Heavy:          spaceSavingToWire(cp.Heavy),
			Distinct:       kmvToWire(cp.Distinct),
			Rows:           cp.Rows,
			RowSampleCodes: cp.codes.get(),
			Cardinality:    cp.Cardinality,
			Dict:           cp.Dict,
		})
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("sketch: encoding profile: %w", err)
	}
	return nil
}

func sortedProfileNames(p *DatasetProfile) []string {
	names := make([]string, 0, len(p.Numeric)+len(p.Categorical))
	for name := range p.Numeric {
		names = append(names, name)
	}
	for name := range p.Categorical {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// LoadProfile deserializes a profile written by Save, refusing a store
// whose row sample no frame can hold (see DatasetProfile.Sample).
func LoadProfile(r io.Reader) (*DatasetProfile, error) {
	var wire profileWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("sketch: decoding profile: %w", err)
	}
	if wire.Version != profileWireVersion {
		return nil, fmt.Errorf("%w %d, want %d: rebuild with `foresight profile`", ErrProfileVersion, wire.Version, profileWireVersion)
	}
	p := &DatasetProfile{
		Rows:        wire.Rows,
		Config:      wire.Config,
		RowSample:   &RowSample{indexes: builtSlots(wire.RowSample)},
		Numeric:     make(map[string]*NumericProfile, len(wire.Numeric)),
		Categorical: make(map[string]*CategoricalProfile, len(wire.Categorical)),
	}
	for _, nw := range wire.Numeric {
		np := &NumericProfile{
			Name:       nw.Name,
			Moments:    nw.Moments,
			Quantiles:  kllFromWire(nw.Quantiles),
			Proj:       projectionFromWire(nw.Proj),
			ProjCenter: nw.ProjCenter,
			Planes:     hyperplaneFromWire(nw.Planes),
			gather:     builtGather(nw.RowSampleValues),
		}
		if nw.HasRank {
			np.RankProj = projectionFromWire(nw.RankProj)
			np.RankPlanes = hyperplaneFromWire(nw.RankPlanes)
		}
		p.Numeric[np.Name] = np
	}
	for _, cw := range wire.Categorical {
		if cw.Cardinality != len(cw.Dict) {
			return nil, fmt.Errorf("sketch: decoding profile: column %q has cardinality %d and %d labels", cw.Name, cw.Cardinality, len(cw.Dict))
		}
		p.Categorical[cw.Name] = &CategoricalProfile{
			Name:        cw.Name,
			Heavy:       spaceSavingFromWire(cw.Heavy),
			Distinct:    kmvFromWire(cw.Distinct),
			Rows:        cw.Rows,
			codes:       builtGather(cw.RowSampleCodes),
			Cardinality: cw.Cardinality,
			Dict:        cw.Dict,
		}
	}
	sample, err := p.sampleFrame()
	if err != nil {
		return nil, fmt.Errorf("sketch: decoding profile: row sample: %w", err)
	}
	p.sampleOnce.Do(func() { p.sample = sample })
	return p, nil
}
