package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/stats"
)

// TestMergeReservoirsUniform guards the prefix-bias fix: a
// reservoir's item array is not in random order (underfilled it is in
// stream order, and algorithm R overwrites in place), so a merge that
// consumed side prefixes would over-represent early-stream items.
// Values encode stream position; after merging, the taken items from
// each side must cover that side's stream positions uniformly — both
// when a side is replayed whole (1000 values under the capacity) and
// when two subsampled sides go through the weighted draw.
func TestMergeReservoirsUniform(t *testing.T) {
	for _, per := range []int{1000, 6000} {
		a := NewReservoir(1024, 1)
		b := NewReservoir(1024, 2)
		for i := 0; i < per; i++ {
			a.Update(float64(i))       // side A: positions 0..per-1
			b.Update(float64(per + i)) // side B: positions per..2·per-1
		}
		m := mergeReservoirs(a, b)
		if m.Count() != uint64(2*per) {
			t.Fatalf("per=%d: merged count = %d, want %d", per, m.Count(), 2*per)
		}
		if len(m.Sample()) != 1024 {
			t.Fatalf("per=%d: merged sample len = %d, want capacity 1024", per, len(m.Sample()))
		}
		fromA, lateA, lateB := 0, 0, 0
		for _, v := range m.Sample() {
			if v < float64(per) {
				fromA++
				if v >= float64(per/2) {
					lateA++
				}
			} else if v >= float64(per+per/2) {
				lateB++
			}
		}
		fromB := len(m.Sample()) - fromA
		// Side balance: each side contributed half the stream.
		if fromA < 410 || fromA > 614 {
			t.Errorf("per=%d: side A contributed %d/1024, want ≈512", per, fromA)
		}
		// Within-side uniformity: the second half of each stream must hold
		// ≈half of that side's taken items. The prefix-bias bug put all of
		// a side's taken items in its stream prefix.
		if frac := float64(lateA) / float64(fromA); frac < 0.35 || frac > 0.65 {
			t.Errorf("per=%d: late-stream share of side A = %.2f (%d/%d), want ≈0.5", per, frac, lateA, fromA)
		}
		if frac := float64(lateB) / float64(fromB); frac < 0.35 || frac > 0.65 {
			t.Errorf("per=%d: late-stream share of side B = %.2f (%d/%d), want ≈0.5", per, frac, lateB, fromB)
		}
	}
}

// TestReservoirMergeReplay: merging a side that still holds its whole
// stream is feeding that side's values to Update — on a copy, under
// the receiver's seed, whichever side is the whole one.
func TestReservoirMergeReplay(t *testing.T) {
	fill := func(s *Reservoir, n int, from float64) *Reservoir {
		for i := 0; i < n; i++ {
			s.Update(from + float64(i))
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		na, nb int
	}{
		{"subsampled+whole", 5000, 40},
		{"whole+whole", 30, 40},
		{"whole+whole overflowing", 50, 40},
		{"whole+subsampled", 40, 5000},
		{"empty+whole", 0, 40},
		{"empty+subsampled", 0, 5000},
	} {
		a := fill(NewReservoir(64, 11), tc.na, 0)
		b := fill(NewReservoir(64, 12), tc.nb, 1e6)
		aItems, bItems := slices.Clone(a.items), slices.Clone(b.items)

		// The oracle: the other side's state under a's seed, fed the
		// whole side value by value.
		into, replay := a, b
		if !b.whole() {
			into, replay = b, a
		}
		want := &Reservoir{capacity: 64, items: slices.Clone(into.items), n: into.n, seed: a.seed}
		for _, x := range replay.items {
			want.Update(x)
		}

		got := mergeReservoirs(a, b)
		if got.seed != a.seed || got.n != uint64(tc.na+tc.nb) || !slices.Equal(got.items, want.items) {
			t.Errorf("%s: merge differs from replay (seed %d, n %d)", tc.name, got.seed, got.n)
		}
		if !slices.Equal(a.items, aItems) || !slices.Equal(b.items, bItems) || a.n != uint64(tc.na) || b.n != uint64(tc.nb) {
			t.Errorf("%s: merge modified an argument", tc.name)
		}
		// And the result goes on as the oracle does.
		for i := 0; i < 500; i++ {
			got.Update(float64(-i))
			want.Update(float64(-i))
		}
		if !slices.Equal(got.items, want.items) {
			t.Errorf("%s: merged reservoir does not continue the replayed one's coins", tc.name)
		}
	}
}

// TestSpaceSavingMergeBounds asserts the conservative-merge contract
// on every tracked item — true ≤ est ≤ true + err stays intact after
// Merge — and that no untracked item's true count can exceed the
// merged floor.
func TestSpaceSavingMergeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	truth := map[string]uint64{}
	update := func(s *SpaceSaving, item string) {
		s.Update(item)
		truth[item]++
	}
	a := NewSpaceSaving(8)
	b := NewSpaceSaving(8)
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n"}
	for i := 0; i < 6000; i++ {
		// Skewed ranks with split tails: low ranks land on both sides,
		// high ranks on one, so the merge exercises both-sides, s-only,
		// and other-only counters plus capacity truncation.
		idx := int(float64(len(items)) * math.Pow(rng.Float64(), 3))
		if idx >= len(items) {
			idx = len(items) - 1
		}
		switch {
		case idx < 6:
			if i%2 == 0 {
				update(a, items[idx])
			} else {
				update(b, items[idx])
			}
		case idx%2 == 0:
			update(a, items[idx])
		default:
			update(b, items[idx])
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	var minTracked uint64 = math.MaxUint64
	tracked := map[string]bool{}
	for _, h := range a.Top(0) {
		tracked[h.Item] = true
		if h.Count < minTracked {
			minTracked = h.Count
		}
		tr := truth[h.Item]
		if h.Count < tr {
			t.Errorf("%s: estimate %d below true count %d", h.Item, h.Count, tr)
		}
		if h.Count-h.Err > tr {
			t.Errorf("%s: lower bound %d (est %d − err %d) above true count %d",
				h.Item, h.Count-h.Err, h.Count, h.Err, tr)
		}
	}
	if a.TrackedItems() == 8 { // at capacity: the untracked invariant applies
		for item, tr := range truth {
			if !tracked[item] && tr > minTracked {
				t.Errorf("untracked %s has true count %d above floor %d", item, tr, minTracked)
			}
		}
	}
	var total uint64
	for _, c := range truth {
		total += c
	}
	if a.Count() != total {
		t.Errorf("merged stream count %d, want %d", a.Count(), total)
	}
}

// TestKLLMergeChain guards the compress-loop fix: merging many small
// sketches must leave each intermediate result under its size budget
// (the old loop could exit with size ≥ maxSize when no single level
// was over its own capacity) while keeping rank error bounded.
func TestKLLMergeChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var all []float64
	acc := NewKLL(8, 1)
	for chunk := 0; chunk < 200; chunk++ {
		s := NewKLL(8, int64(chunk)+2)
		for i := 0; i < 50; i++ {
			v := rng.NormFloat64()
			s.Update(v)
			all = append(all, v)
		}
		if err := acc.Merge(s); err != nil {
			t.Fatal(err)
		}
		if acc.StoredItems() >= acc.maxSize {
			t.Fatalf("after merge %d: size %d ≥ budget %d", chunk, acc.StoredItems(), acc.maxSize)
		}
	}
	if acc.Count() != uint64(len(all)) {
		t.Fatalf("count %d, want %d", acc.Count(), len(all))
	}
	sort.Float64s(all)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got := acc.Quantile(q)
		// Compare by rank: the estimated quantile's position in the
		// sorted union must be near q·n.
		pos := sort.SearchFloat64s(all, got)
		if d := math.Abs(float64(pos)/float64(len(all)) - q); d > 0.08 {
			t.Errorf("q%.2f: estimate at rank %.3f (off by %.3f)", q, float64(pos)/float64(len(all)), d)
		}
	}
}

// TestProfileExtendMatchesScratch is the delta path's equivalence
// check: profile a prefix, Extend to the full frame, and the result
// must answer like a from-scratch profile within the same tolerances
// the extension path is held to everywhere.
func TestProfileExtendMatchesScratch(t *testing.T) {
	f := testFrame(12000, 41)
	keep := make([]bool, f.Rows())
	for i := 0; i < 8000; i++ {
		keep[i] = true
	}
	base, err := f.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProfileConfig{Seed: 6, K: 256}
	p := BuildProfile(base, cfg)
	baseRows := p.Rows
	ext, err := p.Extend(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != baseRows {
		t.Fatalf("Extend mutated the receiver: rows %d → %d", baseRows, p.Rows)
	}
	single := BuildProfile(f, cfg)

	if ext.Rows != single.Rows {
		t.Fatalf("rows = %d, want %d", ext.Rows, single.Rows)
	}
	for name, snp := range single.Numeric {
		enp := ext.Numeric[name]
		if enp == nil {
			t.Fatalf("numeric %q missing", name)
		}
		if math.Abs(enp.Moments.Mean-snp.Moments.Mean) > 1e-9*math.Max(1, math.Abs(snp.Moments.Mean)) {
			t.Errorf("%s: mean %v vs %v", name, enp.Moments.Mean, snp.Moments.Mean)
		}
		if enp.Moments.Count() != snp.Moments.Count() {
			t.Errorf("%s: count %d vs %d", name, enp.Moments.Count(), snp.Moments.Count())
		}
		relTol := 1e-6 * math.Max(1, math.Abs(snp.Moments.Variance()))
		if math.Abs(enp.Moments.Variance()-snp.Moments.Variance()) > relTol {
			t.Errorf("%s: variance %v vs %v", name, enp.Moments.Variance(), snp.Moments.Variance())
		}
		for _, q := range []float64{0.25, 0.5, 0.75} {
			exact := stats.Quantile(fColumn(t, f, name), q)
			got := enp.Quantiles.Quantile(q)
			spread := snp.Moments.StdDev()
			if spread > 0 && math.Abs(got-exact) > 0.25*spread {
				t.Errorf("%s: extended q%v = %v, exact %v", name, q, got, exact)
			}
		}
		if len(enp.RowSampleValues) != len(snp.RowSampleValues) {
			t.Errorf("%s: row-sample gather %d vs %d", name, len(enp.RowSampleValues), len(snp.RowSampleValues))
		}
	}
	// Correlation estimates: the extended profile's projections are
	// centered on base means, the scratch profile's on full means —
	// the estimates must still agree closely.
	for _, pair := range [][2]string{{"x", "y"}, {"x", "z"}} {
		a, errA := single.EstimatePearson(pair[0], pair[1])
		b, errB := ext.EstimatePearson(pair[0], pair[1])
		if errA != nil || errB != nil {
			t.Fatalf("pearson(%v): %v / %v", pair, errA, errB)
		}
		if math.Abs(a-b) > 0.05 {
			t.Errorf("pearson(%v): extended %v vs scratch %v", pair, b, a)
		}
	}
	// Categorical state refreshed from the full frame.
	scp, ecp := single.Categorical["cat"], ext.Categorical["cat"]
	if ecp == nil {
		t.Fatal("categorical profile missing after Extend")
	}
	if ecp.Rows != scp.Rows {
		t.Errorf("cat rows: %d vs %d", ecp.Rows, scp.Rows)
	}
	if math.Abs(ecp.Heavy.RelFreqTopK(3)-scp.Heavy.RelFreqTopK(3)) > 0.02 {
		t.Errorf("cat relfreq: %v vs %v", ecp.Heavy.RelFreqTopK(3), scp.Heavy.RelFreqTopK(3))
	}
	if rel := math.Abs(ecp.Distinct.Distinct()-scp.Distinct.Distinct()) / math.Max(scp.Distinct.Distinct(), 1); rel > 0.05 {
		t.Errorf("cat distinct: %v vs %v", ecp.Distinct.Distinct(), scp.Distinct.Distinct())
	}
	if ecp.Cardinality != scp.Cardinality {
		t.Errorf("cat cardinality: %d vs %d", ecp.Cardinality, scp.Cardinality)
	}
	if len(ecp.Dict) != len(scp.Dict) {
		t.Errorf("cat dict: %d vs %d entries", len(ecp.Dict), len(scp.Dict))
	}
	if ext.RowSample.Len() != single.RowSample.Len() {
		t.Errorf("row sample len %d vs %d", ext.RowSample.Len(), single.RowSample.Len())
	}
}

func TestProfileExtendErrors(t *testing.T) {
	f := testFrame(1000, 44)
	keep := make([]bool, f.Rows())
	for i := 0; i < 800; i++ {
		keep[i] = true
	}
	base, err := f.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	p := BuildProfile(f, ProfileConfig{Seed: 1, K: 32})
	// Fewer rows than profiled.
	if _, err := p.Extend(base); err == nil {
		t.Error("extending onto a smaller frame should fail")
	}
	// Column set mismatch.
	sub, err := f.Select("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Extend(sub); err == nil {
		t.Error("extending onto a narrower frame should fail")
	}
}

// TestExtendZeroRows: with nothing appended there is nothing to extend,
// and in particular nothing to drop — the rank (Spearman) sketches of
// the receiver cover exactly the frame's rows. Extend returns the
// receiver, on any number of workers.
func TestExtendZeroRows(t *testing.T) {
	f := testFrame(1000, 44)
	for _, workers := range []int{0, 4} {
		p := BuildProfile(f, ProfileConfig{Seed: 1, K: 32, Spearman: true, Workers: workers})
		want := saveBytes(t, p)
		same, err := p.Extend(f)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if same != p {
			t.Errorf("workers=%d: Extend of zero rows returned a new profile", workers)
		}
		if _, err := same.EstimateSpearman("x", "y"); err != nil {
			t.Errorf("workers=%d: Extend of zero rows lost the Spearman sketches: %v", workers, err)
		}
		if !slices.Equal(saveBytes(t, p), want) {
			t.Errorf("workers=%d: zero-row Extend changed the receiver", workers)
		}
	}
}

// TestExtendBytesAtAnyWorkerCount: Extend runs on its receiver's
// Config.Workers, keeps that count in its result, and the count never
// reaches the bytes. The batches are one row, ten, an
// acknowledgement's 250, exactly the rest of a direction block (255
// rows from its second row) and one row past it (257), and six blocks'
// worth; the frame is wide enough that the projection runs in column
// chunks, and has a numeric and a categorical column that are all
// missing.
func TestExtendBytesAtAnyWorkerCount(t *testing.T) {
	const base = 10*directionGranule + 1
	wide := datagen.Scalable(datagen.ScalableConfig{Rows: base + 1500, NumericCols: 40, CatCols: 2, Seed: 9})
	cols := make([]frame.Column, 0, wide.Cols()+2)
	for i := range wide.Cols() {
		cols = append(cols, wide.Column(i))
	}
	nan := make([]float64, wide.Rows())
	for i := range nan {
		nan[i] = math.NaN()
	}
	cols = append(cols,
		frame.NewNumericColumn("all-missing", nan),
		frame.NewCategoricalColumn("no-label", make([]string, wide.Rows())))
	src := frame.MustNew("wide", cols...)
	keep := make([]bool, src.Rows())
	for i := range base {
		keep[i] = true
	}
	f, err := src.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProfileConfig{Seed: 3, Spearman: true}
	for _, rows := range []int{1, 10, 250, 255, 257, 1500} {
		grown, err := f.AppendRows(rowsOf(src, base, base+rows), nil)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := BuildProfile(f, cfg).Extend(grown)
		if err != nil {
			t.Fatal(err)
		}
		want := saveBytes(t, seq)
		for _, workers := range []int{1, 2, 3, -1} {
			par := cfg
			par.Workers = workers
			ext, err := BuildProfile(f, par).Extend(grown)
			if err != nil {
				t.Fatal(err)
			}
			if ext.Config.Workers != workers {
				t.Errorf("rows=%d workers=%d: result runs on %d workers", rows, workers, ext.Config.Workers)
			}
			if !bytes.Equal(saveBytes(t, ext), want) {
				t.Errorf("rows=%d workers=%d: Extend saves to different bytes than on one worker", rows, workers)
			}
		}
	}
}

// rowsOf renders rows [from, to) of f as an ingest batch.
func rowsOf(f *frame.Frame, from, to int) frame.RowBatch {
	batch := frame.RowBatch{Records: make([][]string, 0, to-from)}
	for r := from; r < to; r++ {
		rec := make([]string, f.Cols())
		for c := range rec {
			rec[c] = f.Column(c).StringAt(r)
		}
		batch.Records = append(batch.Records, rec)
	}
	return batch
}

// TestExtendAfterLoadMatchesLive is the recovery invariant: Extend is a
// function of (what Save writes of its receiver, the frame), so a
// profile reloaded from a snapshot mid-stream and the live one it was
// saved from extend to the same saved bytes. The small configuration
// makes every batch overflow the reservoirs (the weighted merge draw)
// and compact the quantile sketches; the default one takes the replay
// path. The chain's row sample must also be the one a rebuild draws.
func TestExtendAfterLoadMatchesLive(t *testing.T) {
	src := testFrame(6*250, 6)
	catCol := src.ColumnIndex("cat")
	for _, cfg := range []ProfileConfig{
		{Seed: 6, K: 64},
		{Seed: 6, K: 64, KLLSize: 16, HeavyCapacity: 8, KMVSize: 16, SampleSize: 64, RowSampleSize: 128},
	} {
		for _, newLabels := range []bool{false, true} {
			f := testFrame(3000, 5)
			live := BuildProfile(f, cfg)
			var reloaded *DatasetProfile
			for i := 0; i < 6; i++ {
				batch := rowsOf(src, i*250, (i+1)*250)
				if newLabels {
					for r, rec := range batch.Records {
						rec[catCol] = fmt.Sprintf("batch%d-%d", i, r%7)
					}
				}
				var err error
				if f, err = f.AppendRows(batch, nil); err != nil {
					t.Fatal(err)
				}
				if live, err = live.Extend(f); err != nil {
					t.Fatal(err)
				}
				if reloaded != nil {
					if reloaded, err = reloaded.Extend(f); err != nil {
						t.Fatal(err)
					}
				}
				if i == 2 {
					if reloaded, err = LoadProfile(bytes.NewReader(saveBytes(t, live))); err != nil {
						t.Fatal(err)
					}
				}
			}
			label := fmt.Sprintf("sample=%d newLabels=%v", cfg.SampleSize, newLabels)
			if !bytes.Equal(saveBytes(t, live), saveBytes(t, reloaded)) {
				t.Errorf("%s: the live chain and the one reloaded after batch 3 save to different bytes", label)
			}
			rebuilt := BuildProfile(f, cfg)
			if !slices.Equal(live.RowSample.Indexes, rebuilt.RowSample.Indexes) {
				t.Errorf("%s: extended row sample differs from a rebuild's", label)
			}
			for name, np := range rebuilt.Numeric {
				if !slices.Equal(live.Numeric[name].RowSampleValues, np.RowSampleValues) {
					t.Errorf("%s: %s row-sample values differ from a rebuild's", label, name)
				}
			}
			for name, cp := range rebuilt.Categorical {
				if !slices.Equal(live.Categorical[name].RowSampleCodes, cp.RowSampleCodes) ||
					!slices.Equal(live.Categorical[name].Dict, cp.Dict) {
					t.Errorf("%s: %s row-sample codes or labels differ from a rebuild's", label, name)
				}
			}
		}
	}
}

// extendCost measures one Extend of p onto f: heap bytes and
// allocations per call.
func extendCost(t *testing.T, p *DatasetProfile, f *frame.Frame) (bytesPerOp, allocsPerOp float64) {
	t.Helper()
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := p.Extend(f); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// TestExtendAllocationCeiling holds Extend to O(batch) in what it
// allocates, the part of its cost a test can pin exactly. A 250-row
// batch costs the same onto 8K rows as onto 128K — the copies are of
// sketches, whose size does not follow the row count — and stays under
// a ceiling that the clone by wire round trip it replaces did not
// (2.67 MB in 1 489 allocations at this shape). A 10-row batch pays
// the copies of what it writes and almost no delta: onto 128K rows,
// where it seldom takes a row-sample slot and so shares the gathers, it
// costs under a third of the ceiling; onto 8K rows it takes two or
// three slots, copies the gathers (16 KB a column) like any larger
// batch, and is held only to costing less than one.
func TestExtendAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 128K-row profile")
	}
	const ceilingBytes, ceilingAllocs = 1.3e6, 1400
	var cost [2][2]float64
	for i, base := range []int{8 << 10, 128 << 10} {
		f := datagen.Scalable(datagen.ScalableConfig{Rows: base, NumericCols: 16, CatCols: 2, Seed: 5})
		p := BuildProfile(f, ProfileConfig{Seed: 1, K: 256})
		f250, err := f.AppendRows(rowsOf(f, 0, 250), nil)
		if err != nil {
			t.Fatal(err)
		}
		b, a := extendCost(t, p, f250)
		cost[i] = [2]float64{b, a}
		t.Logf("base %dK: 250-row Extend %.0f B/op, %.0f allocs/op", base>>10, b, a)
		if b > ceilingBytes || a > ceilingAllocs {
			t.Errorf("base %dK: 250-row Extend allocates %.0f B in %.0f allocations, ceiling %.0f B / %d",
				base>>10, b, a, ceilingBytes, ceilingAllocs)
		}
		f10, err := f.AppendRows(rowsOf(f, 0, 10), nil)
		if err != nil {
			t.Fatal(err)
		}
		b10, a10 := extendCost(t, p, f10)
		t.Logf("base %dK: 10-row Extend %.0f B/op, %.0f allocs/op", base>>10, b10, a10)
		limit := b
		if base == 128<<10 {
			limit = ceilingBytes / 3
		}
		if b10 > limit || a10 > a {
			t.Errorf("base %dK: 10-row Extend allocates %.0f B in %.0f allocations, want under %.0f B / %.0f",
				base>>10, b10, a10, limit, a)
		}
	}
	for k, what := range []string{"bytes", "allocations"} {
		small, large := cost[0][k], cost[1][k]
		if math.Abs(small-large) > 0.1*max(small, large) {
			t.Errorf("250-row Extend %s/op: %.0f onto 8K rows, %.0f onto 128K — not O(batch)", what, small, large)
		}
	}
}
