package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
)

// TestFillDirections pins the three properties the stream is defined
// by: a block is a function of (seed, b) alone, a shorter fill is a
// prefix of a longer one (projectRange draws only the rows it needs),
// and blocks differ across b and across seeds.
func TestFillDirections(t *testing.T) {
	const k = 37
	fill := func(seed int64, b, rows int) []float32 {
		buf := make([]float32, rows*k)
		fillDirections(seed, b, buf)
		return buf
	}
	want := fill(9, 3, directionGranule)
	for b := 0; b < 3; b++ {
		fill(9, b, directionGranule) // drawing other blocks first changes nothing
	}
	if !slices.Equal(fill(9, 3, directionGranule), want) {
		t.Error("block 3 depends on what was drawn before it")
	}
	if !slices.Equal(fill(9, 3, 100), want[:100*k]) {
		t.Error("a 100-row fill is not the prefix of the block")
	}
	for _, other := range [][]float32{fill(9, 2, directionGranule), fill(9, 4, directionGranule), fill(10, 3, directionGranule), fill(-9, 3, directionGranule)} {
		same := 0
		for i := range want {
			if other[i] == want[i] {
				same++
			}
		}
		if same > len(want)/100 {
			t.Errorf("blocks of different (seed, b) share %d of %d draws", same, len(want))
		}
	}
	// Standard normal draws: mean ≈ 0, variance ≈ 1 over 256·37 values.
	var sum, sq float64
	for _, g := range want {
		sum += float64(g)
		sq += float64(g) * float64(g)
	}
	n := float64(len(want))
	if mean, v := sum/n, sq/n; math.Abs(mean) > 0.05 || math.Abs(v-1) > 0.05 {
		t.Errorf("block moments: mean %v, variance %v", mean, v)
	}
}

// splitColumns are d columns of n rows, a few cells NaN, plus their
// centering values.
func splitColumns(n, d int, seed int64) (cols [][]float64, means []float64) {
	rng := rand.New(rand.NewSource(seed))
	cols, means = make([][]float64, d), make([]float64, d)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()*float64(j+1) + float64(j)
			if rng.Intn(17) == 0 {
				cols[j][i] = math.NaN()
			}
		}
		means[j] = float64(j) + 0.25
	}
	return cols, means
}

// dotsClose reports the first dot of got that is not within 1e-9 of
// want, relative to the largest dot of the projection (a single dot can
// cancel to near zero; the accumulation error scales with the others).
func dotsClose(got, want *Projection) error {
	if got.Rows != want.Rows || got.Seed != want.Seed || len(got.Dots) != len(want.Dots) {
		return fmt.Errorf("shape (rows %d, seed %d, k %d) vs (rows %d, seed %d, k %d)",
			got.Rows, got.Seed, len(got.Dots), want.Rows, want.Seed, len(want.Dots))
	}
	scale := 1.0
	for _, d := range want.Dots {
		scale = math.Max(scale, math.Abs(d))
	}
	for q := range want.Dots {
		if math.Abs(got.Dots[q]-want.Dots[q]) > 1e-9*scale {
			return fmt.Errorf("dot %d: %v vs %v (scale %v)", q, got.Dots[q], want.Dots[q], scale)
		}
	}
	return nil
}

// checkProjectRangeSplit asserts, for one (a, b, c): projectRange over
// [a, c) equals the Merge of [a, b) and [b, c) up to association, and
// is bit for bit the whole-column pass over a copy whose rows outside
// [a, c) are missing — the same cells accumulated in the same order.
func checkProjectRangeSplit(cols [][]float64, means []float64, a, b, c int, cfg ProjectConfig) error {
	whole := projectRange(cols, means, a, c, cfg)
	left := projectRange(cols, means, a, b, cfg)
	right := projectRange(cols, means, b, c, cfg)
	masked := make([][]float64, len(cols))
	for j, col := range cols {
		masked[j] = slices.Clone(col)
		for i := range masked[j] {
			if i < a || i >= c {
				masked[j][i] = math.NaN()
			}
		}
	}
	onePass := projectRange(masked, means, 0, len(cols[0]), cfg)
	for j := range cols {
		if err := left[j].Merge(right[j]); err != nil {
			return fmt.Errorf("column %d: merge: %w", j, err)
		}
		if err := dotsClose(left[j], whole[j]); err != nil {
			return fmt.Errorf("column %d: [%d,%d)+[%d,%d) vs [%d,%d): %w", j, a, b, b, c, a, c, err)
		}
		for q, d := range whole[j].Dots {
			if math.Float64bits(d) != math.Float64bits(onePass[j].Dots[q]) {
				return fmt.Errorf("column %d dot %d: range [%d,%d) gives %v, one masked pass gives %v", j, q, a, c, d, onePass[j].Dots[q])
			}
		}
	}
	return nil
}

func TestProjectRangeSplit(t *testing.T) {
	const n = 3*directionGranule + 90
	cols, means := splitColumns(n, 3, 21)
	cfg := ProjectConfig{K: 48, Seed: 77}
	g := directionGranule
	cases := []struct {
		name    string
		a, b, c int
	}{
		{"whole, split inside a granule", 0, 100, n},
		{"whole, split on a boundary", 0, 2 * g, n},
		{"inside one granule", 10, 40, 200},
		{"start and end inside granules", g + 7, 2*g + 9, 3*g + 50},
		{"boundary to boundary", g, 2 * g, 3 * g},
		{"left empty", 300, 300, 700},
		{"right empty", 300, 700, 700},
		{"all empty", 500, 500, 500},
		{"one row each side", g - 1, g, g + 1},
		{"a 250-row ingest batch", 520, 770, n},
	}
	for _, tc := range cases {
		if err := checkProjectRangeSplit(cols, means, tc.a, tc.b, tc.c, cfg); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	// A range of missing rows projects to zero and still counts its rows.
	for i := g; i < 2*g; i++ {
		cols[0][i] = math.NaN()
	}
	p := projectRange(cols[:1], means[:1], g, 2*g, cfg)[0]
	if p.Rows != g || slices.ContainsFunc(p.Dots, func(d float64) bool { return d != 0 }) {
		t.Errorf("all-missing range: rows %d, dots %v", p.Rows, p.Dots[:4])
	}
	// Worker count does not change a bit.
	par := cfg
	par.Workers = 3
	seq, fan := projectRange(cols, means, 5, n, cfg), projectRange(cols, means, 5, n, par)
	for j := range seq {
		if !slices.Equal(seq[j].Dots, fan[j].Dots) {
			t.Errorf("column %d: Workers=3 differs from sequential", j)
		}
	}
}

// FuzzProjectRangeSplit drives checkProjectRangeSplit with arbitrary
// split points, widths and seeds.
func FuzzProjectRangeSplit(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(256), uint16(600), uint8(16))
	f.Add(int64(-3), uint16(255), uint16(257), uint16(258), uint8(1))
	f.Add(int64(99), uint16(700), uint16(700), uint16(700), uint8(64))
	const n = 4 * directionGranule
	cols, means := splitColumns(n, 2, 5)
	f.Fuzz(func(t *testing.T, seed int64, x, y, z uint16, k uint8) {
		pts := []int{int(x) % (n + 1), int(y) % (n + 1), int(z) % (n + 1)}
		slices.Sort(pts)
		cfg := ProjectConfig{K: int(k)%96 + 1, Seed: seed}
		if err := checkProjectRangeSplit(cols, means, pts[0], pts[1], pts[2], cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExtendChainMatchesOnePass appends k batches of uneven sizes —
// inside a granule, across one, across several — extending the profile
// each time, and checks the dots against one pass over the final frame
// centered where the chain was centered.
func TestExtendChainMatchesOnePass(t *testing.T) {
	f := testFrame(1000, 52)
	cfg := ProfileConfig{Seed: 8, K: 96}
	p := BuildProfile(f, cfg)
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{10, 250, 3, 700, 256, 1} {
		batch := frame.RowBatch{Records: make([][]string, rows)}
		for r := range batch.Records {
			batch.Records[r] = []string{
				fmt.Sprint(rng.NormFloat64()), fmt.Sprint(rng.NormFloat64()), fmt.Sprint(rng.NormFloat64()),
				fmt.Sprint(rng.ExpFloat64()), fmt.Sprintf("c%d", rng.Intn(9)),
			}
			if r%11 == 0 {
				batch.Records[r][1] = "" // a missing cell
			}
		}
		var err error
		if f, err = f.AppendRows(batch, nil); err != nil {
			t.Fatal(err)
		}
		if p, err = p.Extend(f); err != nil {
			t.Fatal(err)
		}
	}
	numeric := f.NumericColumns()
	cols, centers := make([][]float64, len(numeric)), make([]float64, len(numeric))
	for i, nc := range numeric {
		cols[i], centers[i] = nc.Values(), p.Numeric[nc.Name()].ProjCenter
	}
	onePass := projectRange(cols, centers, 0, f.Rows(), ProjectConfig{K: p.Config.K, Seed: p.Config.Seed + 101})
	for i, nc := range numeric {
		if err := dotsClose(p.Numeric[nc.Name()].Proj, onePass[i]); err != nil {
			t.Errorf("%s after 6 appends: %v", nc.Name(), err)
		}
	}
}

// TestShardCountsAgree holds BuildProfile at 1, 2, 3 and GOMAXPROCS
// workers to the sequential build byte for byte, on a frame wide
// enough that the projections run in column chunks and long enough
// that they span several direction blocks. (The name is from the row
// shards it compared before the worker count was the build's one
// parallelism knob.)
func TestShardCountsAgree(t *testing.T) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 5000, NumericCols: 40, CatCols: 2, Seed: 61})
	cfg := ProfileConfig{Seed: 4, K: 128, Spearman: true}
	want := saveBytes(t, BuildProfile(f, cfg))
	for _, workers := range []int{1, 2, 3, -1} {
		par := cfg
		par.Workers = workers
		if !bytes.Equal(saveBytes(t, BuildProfile(f, par)), want) {
			t.Errorf("workers=%d: saves to different bytes than the sequential build", workers)
		}
	}
}

// rowSampleOracle is textbook algorithm R over the row indexes
// 0..n-1, one pass from scratch: fill the reservoir, then give row r a
// uniform slot of [0, r] and keep it when the slot is inside.
func rowSampleOracle(n, capacity int, seed int64) []int {
	if capacity <= 0 {
		capacity = 1024
	}
	idx := []int{}
	for r := 0; r < n; r++ {
		if len(idx) < capacity {
			idx = append(idx, r)
			continue
		}
		seen := uint64(r) + 1
		if j := below(coin(seed, 0, seen), seen); j < uint64(capacity) {
			idx[j] = r
		}
	}
	return idx
}

// checkRowSampleExtend offers [0, n) to a row sample in the pieces the
// cuts make and holds every intermediate sample to the oracle's
// one-shot sample of that many rows. The copying extension's reported
// slots must account for every difference from the sample before, and
// the slotted indexes, and a column gathered at them, must equal the
// copying oracles (rowSampleExtendedCopy, regather) at every cut —
// read at the cut when its read bit is set, and otherwise only after
// the later cuts have extended them unread.
func checkRowSampleExtend(n, capacity int, seed int64, cuts []int, read []bool) error {
	if capacity <= 0 {
		capacity = 1024
	}
	col := make([]float64, n)
	for r := range col {
		col[r] = float64(r)*1.5 - 7
	}
	type generation struct {
		at         int
		idx        *slotted[int]
		gather     *gathered[float64]
		wantIdx    []int
		wantGather []float64
	}
	idx, gath, at := []int(nil), []float64(nil), 0
	var sIdx *slotted[int]
	var gens []generation
	check := func(g generation) error {
		if !slices.Equal(g.idx.get(), g.wantIdx) {
			return fmt.Errorf("n=%d capacity=%d seed=%d: slotted indexes at %d differ from the copying oracle's", n, capacity, seed, g.at)
		}
		if !slices.Equal(g.gather.get(), g.wantGather) {
			return fmt.Errorf("n=%d capacity=%d seed=%d: gather at %d differs from regather's", n, capacity, seed, g.at)
		}
		return nil
	}
	for i, to := range append(slices.Clone(cuts), n) {
		if to < at || to > n {
			continue
		}
		next, slots := rowSampleExtendedCopy(idx, at, to, capacity, seed)
		if want := rowSampleOracle(to, capacity, seed); !slices.Equal(next, want) {
			return fmt.Errorf("n=%d capacity=%d seed=%d: extending %d→%d differs from the one-shot sample", n, capacity, seed, at, to)
		}
		for j, r := range next {
			if (j >= len(idx) || idx[j] != r) && !slices.Contains(slots, j) {
				return fmt.Errorf("n=%d capacity=%d seed=%d: extending %d→%d rewrote slot %d without reporting it", n, capacity, seed, at, to, j)
			}
		}
		ws := rowSampleWrites(at, to, capacity, seed)
		size := min(to, capacity)
		sIdx = sIdx.extended(size, ws)
		prefix := col[:to]
		sGather := gatherAt(&RowSample{indexes: sIdx}, func(i int) float64 { return prefix[i] })
		idx, gath, at = next, regather(gath, col, next, slots), to
		g := generation{at: at, idx: sIdx, gather: sGather, wantIdx: idx, wantGather: gath}
		if i < len(read) && read[i] {
			if err := check(g); err != nil {
				return err
			}
		}
		gens = append(gens, g)
	}
	for _, g := range gens {
		if err := check(g); err != nil {
			return err
		}
	}
	seen := make(map[int]bool, len(idx))
	for _, r := range idx {
		if r < 0 || r >= n || seen[r] {
			return fmt.Errorf("n=%d capacity=%d seed=%d: index %d out of range or repeated", n, capacity, seed, r)
		}
		seen[r] = true
	}
	if len(idx) != min(n, capacity) {
		return fmt.Errorf("n=%d capacity=%d seed=%d: %d indexes", n, capacity, seed, len(idx))
	}
	return nil
}

// TestRowSampleExtendMatchesBuild: the sample of n rows is the sample
// of m rows offered rows [m, n), however the way there is cut up, and
// NewRowSample is the uncut case.
func TestRowSampleExtendMatchesBuild(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 2048, 2049, 5000, 30000} {
		for _, capacity := range []int{1, 2, 5, 99, 100, 101, 2048, 40000} {
			for seed := int64(-1); seed <= 3; seed++ {
				if got, want := NewRowSample(n, capacity, seed).Indexes(), rowSampleOracle(n, capacity, seed); !slices.Equal(got, want) {
					t.Fatalf("n=%d capacity=%d seed=%d: NewRowSample differs from the oracle", n, capacity, seed)
				}
				cuts := []int{n / 3, n / 3, n/2 + 1, n - 1}
				if err := checkRowSampleExtend(n, capacity, seed, cuts, []bool{seed%2 == 0, false, true}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got, want := NewRowSample(3000, 0, 9).Indexes(), rowSampleOracle(3000, 0, 9); !slices.Equal(got, want) {
		t.Fatal("default capacity: NewRowSample differs from the oracle")
	}
}

// TestRowSampleUniform: every row of 30 000 is as likely to be sampled
// as any other — early rows, which fill the reservoir, no more than
// late ones, which must displace them. χ² over 30 buckets of 1 000
// rows, pooled over 200 seeds; 59.7 is the 0.1 % point at 29 degrees
// of freedom (the seeds are fixed, so this cannot flake).
func TestRowSampleUniform(t *testing.T) {
	const n, capacity, buckets, seeds = 30000, 2048, 30, 200
	var hits [buckets]float64
	for seed := int64(0); seed < seeds; seed++ {
		for _, r := range NewRowSample(n, capacity, seed).Indexes() {
			hits[r/(n/buckets)]++
		}
	}
	want := float64(seeds*capacity) / buckets
	chi2 := 0.0
	for _, h := range hits {
		chi2 += (h - want) * (h - want) / want
	}
	if chi2 > 59.7 {
		t.Errorf("χ² = %.1f over %d buckets: sampled rows are not uniform over [0, %d)", chi2, buckets, n)
	}
}

// FuzzRowSampleExtend cuts the way to n rows wherever the fuzzer
// likes, and reads the slotted arrays at the cuts whose step is odd.
func FuzzRowSampleExtend(f *testing.F) {
	f.Add(uint16(5000), uint16(64), int64(1), []byte{10, 200, 30})
	f.Add(uint16(100), uint16(100), int64(-3), []byte{})
	f.Add(uint16(3), uint16(2000), int64(0), []byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, n, capacity uint16, seed int64, steps []byte) {
		if len(steps) > 64 {
			steps = steps[:64]
		}
		cuts, read, at := make([]int, 0, len(steps)), make([]bool, 0, len(steps)), 0
		for _, step := range steps {
			at += int(step) * (int(n)/256 + 1)
			cuts = append(cuts, min(at, int(n)))
			read = append(read, step%2 == 1)
		}
		if err := checkRowSampleExtend(int(n), int(capacity)+1, seed, cuts, read); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSpaceSavingDeterministic: an over-capacity stream full of ties at
// the minimum must give the same sketch every time it is built. Before
// the tie-break, admit evicted whichever tied counter the map iteration
// reached first.
func TestSpaceSavingDeterministic(t *testing.T) {
	build := func() *SpaceSaving {
		s := NewSpaceSaving(8)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 400; i++ {
			s.Update(fmt.Sprintf("item%02d", rng.Intn(40)))
		}
		return s
	}
	first := build()
	for run := 1; run < 50; run++ {
		s := build()
		if !slices.Equal(s.Top(0), first.Top(0)) {
			t.Fatalf("run %d: Top(0) = %v, first run %v", run, s.Top(0), first.Top(0))
		}
		if s.UntrackedBound() != first.UntrackedBound() {
			t.Fatalf("run %d: UntrackedBound %d vs %d", run, s.UntrackedBound(), first.UntrackedBound())
		}
	}
	// And through the store: a categorical column over capacity, saved.
	labels := make([]string, 3000)
	rng := rand.New(rand.NewSource(11))
	for i := range labels {
		labels[i] = fmt.Sprintf("v%03d", rng.Intn(500))
	}
	f := frame.MustNew("ties", frame.NewCategoricalColumn("c", labels))
	want := saveBytes(t, BuildProfile(f, ProfileConfig{Seed: 1, HeavyCapacity: 32}))
	for run := 1; run < 50; run++ {
		if got := saveBytes(t, BuildProfile(f, ProfileConfig{Seed: 1, HeavyCapacity: 32})); !slices.Equal(got, want) {
			t.Fatalf("run %d: Save bytes differ", run)
		}
	}
}
