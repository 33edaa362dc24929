package sketch

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/stats"
)

func saveBytes(t *testing.T, p *DatasetProfile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestShardBounds(t *testing.T) {
	cases := []struct {
		lo, hi, shards int
	}{
		{0, 100000, 4},
		{0, directionGranule, 8},
		{8192, 30000, 3},
		{5, 5000, 2},
		{0, 1, 16},
		{7, 7, 4},
		{20250, 20500, 2},
	}
	for _, c := range cases {
		bounds := shardBounds(c.lo, c.hi, c.shards)
		if c.hi <= c.lo {
			// An empty span is one empty range, so a build over no rows
			// still runs.
			if len(bounds) != 1 || bounds[0] != [2]int{c.lo, c.lo} {
				t.Errorf("(%+v): empty range produced %v", c, bounds)
			}
			continue
		}
		if len(bounds) == 0 || len(bounds) > c.shards {
			t.Fatalf("(%+v): %d ranges", c, len(bounds))
		}
		// Ranges tile [lo, hi) exactly, in order.
		if bounds[0][0] != c.lo || bounds[len(bounds)-1][1] != c.hi {
			t.Errorf("(%+v): ranges %v do not cover [%d, %d)", c, bounds, c.lo, c.hi)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i][0] != bounds[i-1][1] {
				t.Errorf("(%+v): gap between %v and %v", c, bounds[i-1], bounds[i])
			}
			// Interior boundaries are block-aligned so no direction block
			// straddles two shards.
			if bounds[i][0]%directionGranule != 0 {
				t.Errorf("(%+v): interior boundary %d not block-aligned", c, bounds[i][0])
			}
		}
	}
}

func TestShardedProfileMatchesSinglePass(t *testing.T) {
	f := testFrame(30000, 47)
	cfg := ProfileConfig{Seed: 6, K: 256, Spearman: true}
	single := BuildProfile(f, cfg)
	sharded := BuildProfileSharded(f, cfg, 4)

	if sharded.Rows != single.Rows {
		t.Fatalf("rows = %d, want %d", sharded.Rows, single.Rows)
	}
	for name, snp := range single.Numeric {
		pnp := sharded.Numeric[name]
		if pnp == nil {
			t.Fatalf("numeric %q missing", name)
		}
		// Exact statistics match up to fp associativity.
		if math.Abs(pnp.Moments.Mean-snp.Moments.Mean) > 1e-9*math.Max(1, math.Abs(snp.Moments.Mean)) {
			t.Errorf("%s: mean %v vs %v", name, pnp.Moments.Mean, snp.Moments.Mean)
		}
		if pnp.Moments.Count() != snp.Moments.Count() {
			t.Errorf("%s: count %d vs %d", name, pnp.Moments.Count(), snp.Moments.Count())
		}
		relTol := 1e-6 * math.Max(1, math.Abs(snp.Moments.Variance()))
		if math.Abs(pnp.Moments.Variance()-snp.Moments.Variance()) > relTol {
			t.Errorf("%s: variance %v vs %v", name, pnp.Moments.Variance(), snp.Moments.Variance())
		}
		// Shards consume the same direction stream, so dots agree to fp
		// noise — plain and rank projections both.
		for i := range snp.Proj.Dots {
			d := math.Abs(pnp.Proj.Dots[i] - snp.Proj.Dots[i])
			if d > 1e-6*math.Max(1, math.Abs(snp.Proj.Dots[i])) {
				t.Fatalf("%s: dot %d differs: %v vs %v", name, i, pnp.Proj.Dots[i], snp.Proj.Dots[i])
			}
		}
		if pnp.RankProj == nil {
			t.Fatalf("%s: rank projections missing", name)
		}
		for i := range snp.RankProj.Dots {
			d := math.Abs(pnp.RankProj.Dots[i] - snp.RankProj.Dots[i])
			if d > 1e-6*math.Max(1, math.Abs(snp.RankProj.Dots[i])) {
				t.Fatalf("%s: rank dot %d differs: %v vs %v", name, i, pnp.RankProj.Dots[i], snp.RankProj.Dots[i])
			}
		}
		// Merged KLL stays within its error bounds.
		for _, q := range []float64{0.25, 0.5, 0.75} {
			exact := stats.Quantile(fColumn(t, f, name), q)
			got := pnp.Quantiles.Quantile(q)
			spread := snp.Moments.StdDev()
			if spread > 0 && math.Abs(got-exact) > 0.25*spread {
				t.Errorf("%s: sharded q%v = %v, exact %v", name, q, got, exact)
			}
		}
	}
	for _, pair := range [][2]string{{"x", "y"}, {"x", "z"}} {
		a, _ := single.EstimatePearson(pair[0], pair[1])
		b, _ := sharded.EstimatePearson(pair[0], pair[1])
		if math.Abs(a-b) > 0.05 {
			t.Errorf("pearson(%v): sharded %v vs single %v", pair, b, a)
		}
		as, _ := single.EstimateSpearman(pair[0], pair[1])
		bs, _ := sharded.EstimateSpearman(pair[0], pair[1])
		if math.Abs(as-bs) > 0.05 {
			t.Errorf("spearman(%v): sharded %v vs single %v", pair, bs, as)
		}
	}

	// Categorical: exact fields match; merged heavy hitters keep the
	// SpaceSaving bound true ∈ [Count−Err, Count] against exact counts.
	sc := single.Categorical["cat"]
	pc := sharded.Categorical["cat"]
	if pc.Rows != sc.Rows {
		t.Errorf("cat rows: %d vs %d", pc.Rows, sc.Rows)
	}
	if pc.Cardinality != sc.Cardinality {
		t.Errorf("cat cardinality: %d vs %d", pc.Cardinality, sc.Cardinality)
	}
	cc, err := f.Categorical("cat")
	if err != nil {
		t.Fatal(err)
	}
	exact := map[string]uint64{}
	dict := cc.Dict()
	for _, code := range cc.Codes() {
		if code >= 0 {
			exact[dict[code]]++
		}
	}
	for _, hh := range pc.Heavy.Top(5) {
		truth := exact[hh.Item]
		if hh.Count < truth {
			t.Errorf("heavy %q: estimate %d below true count %d", hh.Item, hh.Count, truth)
		}
		if hh.Count-hh.Err > truth {
			t.Errorf("heavy %q: lower bound %d above true count %d", hh.Item, hh.Count-hh.Err, truth)
		}
	}
	if rel := math.Abs(pc.Distinct.Distinct()-sc.Distinct.Distinct()) / math.Max(sc.Distinct.Distinct(), 1); rel > 0.05 {
		t.Errorf("cat distinct: %v vs %v", pc.Distinct.Distinct(), sc.Distinct.Distinct())
	}
	if sharded.RowSample.Len() != single.RowSample.Len() {
		t.Errorf("row sample len %d vs %d", sharded.RowSample.Len(), single.RowSample.Len())
	}
}

// Two sharded builds with the same inputs must be byte-identical:
// partial construction order, shard seeds and reduction order are all
// fixed, so concurrency cannot leak into the result.
func TestShardedBuildDeterministic(t *testing.T) {
	f := testFrame(25000, 48)
	cfg := ProfileConfig{Seed: 9, K: 128, Spearman: true}
	a := saveBytes(t, BuildProfileSharded(f, cfg, 4))
	for i := 0; i < 3; i++ {
		b := saveBytes(t, BuildProfileSharded(f, cfg, 4))
		if !bytes.Equal(a, b) {
			t.Fatalf("sharded build %d differs from first", i+2)
		}
	}
}

// TestBuildProfileBytesPinned holds BuildProfile to the bytes it saved
// to before the three builders became one (digests generated on the
// parent of that change; the wide row on the parent of the tiled
// projection kernel): the demo datasets at their default sizes as
// the server builds them, one synthetic shape large enough to compact
// the quantile sketches and overflow both samples, that shape with no
// rows, a wider one, and the extension by a 10-row batch. Shard counts 0 and 1 and
// any worker count are the same build, and save to the same bytes (the
// worker count is not written).
func TestBuildProfileBytesPinned(t *testing.T) {
	digest := func(p *DatasetProfile) string {
		return fmt.Sprintf("%x", sha256.Sum256(saveBytes(t, p)))
	}
	cfg := ProfileConfig{Seed: 42, Spearman: true}
	scalable := datagen.Scalable(datagen.ScalableConfig{Rows: 3000, NumericCols: 6, CatCols: 2, Seed: 7})
	empty, err := scalable.FilterRows(make([]bool, scalable.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	// Wide and long enough that the projection passes run as column
	// chunks at two or more workers.
	wide := datagen.Scalable(datagen.ScalableConfig{Rows: 3000, NumericCols: 40, CatCols: 2, Seed: 7})
	for _, c := range []struct {
		name string
		f    *frame.Frame
		want string
	}{
		{"oecd", datagen.OECD(0, 42), "1c22db5e992bc45ce88d678334cb21466b83d25aedc5096a6b09fe2444359a87"},
		{"parkinson", datagen.Parkinson(0, 42), "5614510c16088c3aacb7435a16236a989cce17be97b62320e61c5e90e123de1c"},
		{"imdb", datagen.IMDB(0, 42), "eb90275f152ae424f3d2f55e098219a958edca5133de3a7ecdf5baa6bfc6b513"},
		{"scalable", scalable, "bd7fb5114bf70d69883c927d9d40ef0e535436c5f65e620e2ea46eb9cffbdddf"},
		{"empty", empty, "a0d6a0069d8da822942d35be1150af76505fda64d7a36170a43a7b3c907ebb54"},
		{"wide", wide, "2b1d6a74525b4d2fa080ae64438f4b536c2ed1455030a07f17953083b84ce528"},
	} {
		if got := digest(BuildProfile(c.f, cfg)); got != c.want {
			t.Errorf("%s: BuildProfile saves to %s, pinned %s", c.name, got, c.want)
		}
		for _, shards := range []int{0, 1} {
			if got := digest(BuildProfileSharded(c.f, cfg, shards)); got != c.want {
				t.Errorf("%s: shards=%d saves to %s, pinned %s", c.name, shards, got, c.want)
			}
		}
		for _, workers := range []int{-1, 2, 3} {
			par := cfg
			par.Workers = workers
			if got := digest(BuildProfile(c.f, par)); got != c.want {
				t.Errorf("%s: workers=%d saves to %s, pinned %s", c.name, workers, got, c.want)
			}
		}
	}

	grown, err := scalable.AppendRows(rowsOf(scalable, 0, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := BuildProfile(scalable, cfg).Extend(grown)
	if err != nil {
		t.Fatal(err)
	}
	const wantExt = "8ad138e57dbf5563b0ab5fdf8709c2ef8cd9ad3f8566873cf3a81a5a900cc911"
	if got := digest(ext); got != wantExt {
		t.Errorf("extend: saves to %s, pinned %s", got, wantExt)
	}
}

func TestShardedEdgeCases(t *testing.T) {
	// More shards than direction blocks: collapses to one shard.
	small := testFrame(100, 50)
	p := BuildProfileSharded(small, ProfileConfig{Seed: 1, K: 32}, 16)
	if p.Rows != 100 {
		t.Errorf("rows = %d", p.Rows)
	}
	if got := p.Numeric["x"].Moments.Count(); got != 100 {
		t.Errorf("count = %d", got)
	}
	// Negative = GOMAXPROCS.
	p2 := BuildProfileSharded(small, ProfileConfig{Seed: 1, K: 32}, -1)
	if p2.Rows != 100 {
		t.Errorf("rows = %d", p2.Rows)
	}
	// Multi-block frame with shards ≫ blocks still tiles correctly.
	mid := testFrame(10000, 51)
	p3 := BuildProfileSharded(mid, ProfileConfig{Seed: 1, K: 32}, 64)
	if got := p3.Numeric["x"].Moments.Count(); got != 10000 {
		t.Errorf("count = %d", got)
	}
}

func TestExtendShardedMatchesExtend(t *testing.T) {
	f := testFrame(30000, 52)
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

	seq, err := p.Extend(f)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := p.ExtendSharded(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Rows != seq.Rows {
		t.Fatalf("rows = %d, want %d", sh.Rows, seq.Rows)
	}
	for name, snp := range seq.Numeric {
		pnp := sh.Numeric[name]
		if pnp.Moments.Count() != snp.Moments.Count() {
			t.Errorf("%s: count %d vs %d", name, pnp.Moments.Count(), snp.Moments.Count())
		}
		if math.Abs(pnp.Moments.Mean-snp.Moments.Mean) > 1e-9*math.Max(1, math.Abs(snp.Moments.Mean)) {
			t.Errorf("%s: mean %v vs %v", name, pnp.Moments.Mean, snp.Moments.Mean)
		}
		// Both deltas consume the same direction stream over the appended
		// rows, so the extended dots agree to fp noise.
		for i := range snp.Proj.Dots {
			d := math.Abs(pnp.Proj.Dots[i] - snp.Proj.Dots[i])
			if d > 1e-6*math.Max(1, math.Abs(snp.Proj.Dots[i])) {
				t.Fatalf("%s: dot %d differs: %v vs %v", name, i, pnp.Proj.Dots[i], snp.Proj.Dots[i])
			}
		}
	}
	// shards = 0/1 is exactly the one-shard delta.
	sh0, err := p.ExtendSharded(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, sh0), saveBytes(t, seq)) {
		t.Fatal("ExtendSharded(0) not bit-identical to Extend")
	}
}
