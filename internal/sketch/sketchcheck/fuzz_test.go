package sketchcheck

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// The fuzz targets drive randomized operation sequences — update,
// merge in several orders, persist/reload, extend — through the
// Check* invariants. Inputs decode from raw bytes via fz, so the
// fuzzer explores adversarial splits, empty and single-element
// partitions, duplicate-heavy streams, and NaN/±Inf values without
// any structure-aware corpus. Every failing input go's fuzzer
// minimizes lands in testdata/fuzz/<Target>/ and runs as a regression
// seed in the normal `go test ./...` tier.

// fz decodes fuzz input bytes; reads return zero once the input is
// exhausted, so every byte slice is a valid operation sequence.
type fz struct {
	data []byte
	pos  int
}

func (z *fz) byte() byte {
	if z.pos >= len(z.data) {
		return 0
	}
	b := z.data[z.pos]
	z.pos++
	return b
}

func (z *fz) u16() uint16 {
	return uint16(z.byte()) | uint16(z.byte())<<8
}

// value decodes two bytes into a float64; the top codes are reserved
// for the adversarial specials the sketches must survive.
func (z *fz) value() float64 {
	u := z.u16()
	switch u {
	case 0xFFFF:
		return math.NaN()
	case 0xFFFE:
		return math.Inf(1)
	case 0xFFFD:
		return math.Inf(-1)
	}
	return float64(int16(u)) * 0.125
}

func (z *fz) values(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = z.value()
	}
	return out
}

func fatalReport(t *testing.T, r *Report) {
	t.Helper()
	if err := violations(r); err != nil {
		t.Fatal(err)
	}
}

// FuzzKLLMerge checks the quantile sketch's algebra: one-pass builds
// and merges in left, right, and tree order must all answer rank and
// quantile queries for the union stream within RankErrorBound()·n of
// ground truth — merge "commutativity and associativity" holds up to
// query equivalence within the bound, not bitwise. The merged k must
// be the minimum of the inputs' k so the advertised bound stays
// honest.
func FuzzKLLMerge(f *testing.F) {
	f.Add([]byte{2, 16, 40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{3, 8, 200, 100, 0, 0, 255, 255, 254, 255, 253, 255, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		z := &fz{data: data}
		nparts := 2 + int(z.byte()%4)
		parts := make([][]float64, nparts)
		sketches := make([]*sketch.KLL, nparts)
		ks := make([]int, nparts)
		var all []float64
		kmin := math.MaxInt
		for i := range parts {
			ks[i] = 8 + int(z.byte())
			if ks[i] < kmin {
				kmin = ks[i]
			}
			parts[i] = z.values(int(z.u16() % 600))
			all = append(all, parts[i]...)
			s := sketch.NewKLL(ks[i], int64(i)+1)
			s.UpdateAll(parts[i])
			sketches[i] = s
		}

		r := &Report{}
		one := sketch.NewKLL(ks[0], 1)
		one.UpdateAll(all)
		CheckKLL(r, "one-pass", one, all)

		mergedL := sketches[0].Clone()
		for i := 1; i < nparts; i++ {
			if err := mergedL.Merge(sketches[i]); err != nil {
				t.Fatalf("merge-left: %v", err)
			}
		}
		if mergedL.K() != kmin {
			r.Fail("kll/merge-k", "merged k = %d, want min of inputs %d", mergedL.K(), kmin)
		}
		CheckKLL(r, "merge-left", mergedL, all)

		mergedR := sketches[nparts-1].Clone()
		for i := nparts - 2; i >= 0; i-- {
			if err := mergedR.Merge(sketches[i]); err != nil {
				t.Fatalf("merge-right: %v", err)
			}
		}
		CheckKLL(r, "merge-right", mergedR, all)

		tree := make([]*sketch.KLL, nparts)
		for i := range tree {
			tree[i] = sketches[i].Clone()
		}
		for stride := 1; stride < len(tree); stride *= 2 {
			for i := 0; i+stride < len(tree); i += 2 * stride {
				if err := tree[i].Merge(tree[i+stride]); err != nil {
					t.Fatalf("merge-tree: %v", err)
				}
			}
		}
		CheckKLL(r, "merge-tree", tree[0], all)
		fatalReport(t, r)
	})
}

// ssStream is one SpaceSaving input segment.
type ssStream struct {
	items   []string
	weights []uint64
}

func buildSS(capacity int, segs ...ssStream) *sketch.SpaceSaving {
	s := sketch.NewSpaceSaving(capacity)
	for _, seg := range segs {
		for i, item := range seg.items {
			s.UpdateWeighted(item, seg.weights[i])
		}
	}
	return s
}

// FuzzSpaceSavingMerge checks the conservative frequent-items merge:
// after merging in any order — including across different capacities —
// every tracked item still brackets its true count
// (true ≤ est ≤ true + err) and every untracked item's true count is
// bounded by the floor.
func FuzzSpaceSavingMerge(f *testing.F) {
	f.Add([]byte{2, 1, 3, 10, 0, 1, 1, 2, 2, 3, 0, 1, 5, 4, 4, 4, 1, 0})
	f.Add([]byte{3, 4, 2, 8, 250, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		z := &fz{data: data}
		nparts := 2 + int(z.byte()%3)
		segs := make([]ssStream, nparts)
		caps := make([]int, nparts)
		truth := make(map[string]uint64)
		for p := range segs {
			caps[p] = 1 + int(z.byte()%32)
			n := int(z.u16() % 400)
			seg := ssStream{items: make([]string, n), weights: make([]uint64, n)}
			for i := 0; i < n; i++ {
				seg.items[i] = fmt.Sprintf("v%d", z.byte()%20)
				seg.weights[i] = uint64(z.byte() % 5)
				truth[seg.items[i]] += seg.weights[i]
			}
			segs[p] = seg
		}

		r := &Report{}
		CheckSpaceSaving(r, "one-pass", buildSS(caps[0], segs...), truth)

		mergedL := buildSS(caps[0], segs[0])
		for i := 1; i < nparts; i++ {
			if err := mergedL.Merge(buildSS(caps[i], segs[i])); err != nil {
				t.Fatalf("merge-left: %v", err)
			}
		}
		CheckSpaceSaving(r, "merge-left", mergedL, truth)

		mergedR := buildSS(caps[nparts-1], segs[nparts-1])
		for i := nparts - 2; i >= 0; i-- {
			if err := mergedR.Merge(buildSS(caps[i], segs[i])); err != nil {
				t.Fatalf("merge-right: %v", err)
			}
		}
		CheckSpaceSaving(r, "merge-right", mergedR, truth)

		tree := make([]*sketch.SpaceSaving, nparts)
		for i := range tree {
			tree[i] = buildSS(caps[i], segs[i])
		}
		for stride := 1; stride < len(tree); stride *= 2 {
			for i := 0; i+stride < len(tree); i += 2 * stride {
				if err := tree[i].Merge(tree[i+stride]); err != nil {
					t.Fatalf("merge-tree: %v", err)
				}
			}
		}
		CheckSpaceSaving(r, "merge-tree", tree[0], truth)
		fatalReport(t, r)
	})
}

// FuzzKMVMerge checks that the k-minimum-values merge is exactly the
// one-pass sketch of the union stream built at k = min over the
// inputs (the hash function is unkeyed, so the k smallest hashes of a
// union are fully determined), in every merge order.
func FuzzKMVMerge(f *testing.F) {
	f.Add([]byte{2, 0, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 60, 5, 0})
	f.Add([]byte{3, 2, 64, 200, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		z := &fz{data: data}
		nparts := 2 + int(z.byte()%3)
		segs := make([][]string, nparts)
		ks := make([]int, nparts)
		kmin := math.MaxInt
		distinct := make(map[string]bool)
		for p := range segs {
			ks[p] = 16 + int(z.byte()%80)
			if ks[p] < kmin {
				kmin = ks[p]
			}
			n := int(z.u16() % 400)
			segs[p] = make([]string, n)
			for i := 0; i < n; i++ {
				segs[p][i] = fmt.Sprintf("d%d", z.u16()%4000)
				distinct[segs[p][i]] = true
			}
		}
		build := func(k int, ps ...[]string) *sketch.KMV {
			s := sketch.NewKMV(k)
			for _, seg := range ps {
				for _, item := range seg {
					s.Update(item)
				}
			}
			return s
		}

		r := &Report{}
		one := build(kmin, segs...)
		CheckKMV(r, "one-pass", one, len(distinct))

		mergedL := build(ks[0], segs[0])
		for i := 1; i < nparts; i++ {
			if err := mergedL.Merge(build(ks[i], segs[i])); err != nil {
				t.Fatalf("merge-left: %v", err)
			}
		}
		CheckKMV(r, "merge-left", mergedL, len(distinct))
		CheckKMVEqual(r, "merge-left-vs-one-pass", one, mergedL)

		mergedR := build(ks[nparts-1], segs[nparts-1])
		for i := nparts - 2; i >= 0; i-- {
			if err := mergedR.Merge(build(ks[i], segs[i])); err != nil {
				t.Fatalf("merge-right: %v", err)
			}
		}
		CheckKMVEqual(r, "merge-commutes", mergedL, mergedR)
		fatalReport(t, r)
	})
}

// fuzzFrame decodes a small mixed frame: two numeric columns (values
// may be NaN/±Inf) and one categorical column with missing cells.
func fuzzFrame(z *fz, rows int) *frame.Frame {
	xs, ys := z.values(rows), z.values(rows)
	cats := make([]string, rows)
	for i := range cats {
		b := z.byte()
		if b%13 == 0 {
			cats[i] = "" // missing
		} else {
			cats[i] = fmt.Sprintf("c%d", b%20)
		}
	}
	return frame.MustNew("fuzz",
		frame.NewNumericColumn("x", xs),
		frame.NewNumericColumn("y", ys),
		frame.NewCategoricalColumn("cat", cats),
	)
}

func fuzzProfileConfig(z *fz) sketch.ProfileConfig {
	cfg := sketch.ProfileConfig{
		K:             8 + int(z.byte()%64),
		KLLSize:       8 + int(z.byte()%120),
		HeavyCapacity: 1 + int(z.byte()%16),
		KMVSize:       16 + int(z.byte()%64),
	}
	// This byte sized a per-column value sample profiles no longer keep;
	// it is still read, so the corpus under testdata/fuzz keeps its
	// meaning.
	z.byte()
	cfg.RowSampleSize = 1 + int(z.byte()%32)
	cfg.Seed = int64(z.byte())
	return cfg
}

// saveBytes returns what p.Save writes.
func saveBytes(t *testing.T, p *sketch.DatasetProfile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// FuzzProfileRoundTrip builds profiles in one pass and as a prefix
// extended by the rest of the frame (reaching merged boundary states:
// KLL levels freshly grown by merge, SpaceSaving counters trimmed after
// over-capacity merges, empty gathers of all-missing columns, an
// empty prefix or batch, no rows at all), persists each, and requires
// the reloaded profile to answer every query identically, while both
// continue to satisfy the ground-truth invariants.
func FuzzProfileRoundTrip(f *testing.F) {
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{0, 0, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		z := &fz{data: data}
		rows := int(z.u16() % 700)
		cfg := fuzzProfileConfig(z)
		cut := rows * int(z.byte()) / 255
		fr := fuzzFrame(z, rows)
		prefix, err := PrefixFrame(fr, cut)
		if err != nil {
			t.Fatalf("prefix: %v", err)
		}
		extended, err := sketch.BuildProfile(prefix, cfg).Extend(fr)
		if err != nil {
			t.Fatalf("Extend: %v", err)
		}

		r := &Report{}
		for _, build := range []struct {
			label string
			p     *sketch.DatasetProfile
		}{
			{"one-pass", sketch.BuildProfile(fr, cfg)},
			{"extended", extended},
		} {
			CheckProfileInvariants(r, build.p, fr)
			rt := RunProfile(fr, build.p)
			r.Checked += rt.Checked
			for _, v := range rt.Violations {
				r.Violations = append(r.Violations, Violation{
					Invariant: v.Invariant,
					Detail:    build.label + ": " + v.Detail,
				})
			}
		}
		fatalReport(t, r)
	})
}

// FuzzExtendVsRebuild profiles a prefix of the frame, folds the
// remaining rows in via the Extend delta-merge, and checks (a) the
// extended profile still satisfies every ground-truth invariant for
// the full frame, (b) the same extension on two workers saves to the
// same bytes, wherever the appended rows fall among the direction
// blocks, (c) the exact statistics — counts, min/max, KMV distinct —
// match a from-scratch rebuild precisely, since their merges admit no
// drift, and (d) the row-sample frame is the rebuild's cell for cell
// (compat/row-sample), missing cells and all: algorithm R on positional
// coins samples the same rows on both paths.
func FuzzExtendVsRebuild(f *testing.F) {
	f.Add([]byte{16, 0, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add([]byte{2, 0, 1, 0, 255, 255, 254, 255, 253, 255, 0, 0, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		z := &fz{data: data}
		rows := 1 + int(z.u16()%500)
		cut := int(z.u16()) % (rows + 1)
		cfg := fuzzProfileConfig(z)
		full := fuzzFrame(z, rows)
		prefix, err := PrefixFrame(full, cut)
		if err != nil {
			t.Fatalf("prefix: %v", err)
		}

		base := sketch.BuildProfile(prefix, cfg)
		ext, err := base.Extend(full)
		if err != nil {
			t.Fatalf("Extend: %v", err)
		}
		par := cfg
		par.Workers = 2
		extPar, err := sketch.BuildProfile(prefix, par).Extend(full)
		if err != nil {
			t.Fatalf("Extend on 2 workers: %v", err)
		}

		r := &Report{}
		CheckProfileInvariants(r, ext, full)
		r.check(bytes.Equal(saveBytes(t, ext), saveBytes(t, extPar)), "extend/workers",
			"Extend on 2 workers saves to different bytes than on 1")

		rebuild := sketch.BuildProfile(full, cfg)
		for name, np := range rebuild.Numeric {
			en := ext.Numeric[name]
			r.check(en.Moments.Count() == np.Moments.Count(), "extend/moments-count",
				"%s: extended count %d, rebuilt %d", name, en.Moments.Count(), np.Moments.Count())
			r.check(en.Quantiles.Count() == np.Quantiles.Count(), "extend/kll-count",
				"%s: extended KLL count %d, rebuilt %d", name, en.Quantiles.Count(), np.Quantiles.Count())
			if np.Moments.Count() > 0 {
				r.check(sameFloat(en.Moments.MinVal, np.Moments.MinVal) &&
					sameFloat(en.Moments.MaxVal, np.Moments.MaxVal), "extend/minmax",
					"%s: extended [%v,%v], rebuilt [%v,%v]", name,
					en.Moments.MinVal, en.Moments.MaxVal, np.Moments.MinVal, np.Moments.MaxVal)
			}
		}
		for name, cp := range rebuild.Categorical {
			ec := ext.Categorical[name]
			r.check(ec.Rows == cp.Rows, "extend/categorical-rows",
				"%s: extended rows %d, rebuilt %d", name, ec.Rows, cp.Rows)
			CheckKMVEqual(r, "extend/"+name, ec.Distinct, cp.Distinct)
		}
		for _, name := range full.Names() {
			checkRowSample(r, "extend", name, rebuild, ext)
		}
		fatalReport(t, r)
	})
}

// CheckKMVEqual asserts two KMV sketches are query-identical — the
// differential form of "merge ≡ one-pass", exact because the hash
// function is unkeyed and the k smallest hashes of a union are
// determined by the inputs.
func CheckKMVEqual(r *Report, label string, a, b *sketch.KMV) {
	r.check(a.Count() == b.Count(), "kmv/equal-count",
		"%s: counts differ: %d vs %d", label, a.Count(), b.Count())
	r.check(a.K() == b.K(), "kmv/equal-k",
		"%s: k differs: %d vs %d", label, a.K(), b.K())
	r.check(a.Distinct() == b.Distinct(), "kmv/equal-distinct",
		"%s: Distinct() differs: %v vs %v", label, a.Distinct(), b.Distinct())
}
