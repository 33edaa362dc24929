package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"foresight/internal/frame"
)

// The copying oracles the slotted sample arrays replaced: the row
// sample and each gather copied the array in order to write the slots
// a batch took.

// rowSampleExtendedCopy returns the row sample idx (of rows [0, from))
// after rows [from, to) are offered to it, as a copy, and the slots
// that were written (a slot written twice is listed twice); idx itself
// when no row took a slot.
func rowSampleExtendedCopy(idx []int, from, to, capacity int, seed int64) ([]int, []int) {
	var out, slots []int
	for r := from; r < to; r++ {
		j := rowSampleSlot(seed, r, capacity)
		if j < 0 {
			continue
		}
		if out == nil {
			out = make([]int, min(to, capacity))
			copy(out, idx)
		}
		out[j] = r
		slots = append(slots, j)
	}
	if out == nil {
		return idx, nil
	}
	return out, slots
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

// extendCopying is Extend with the copying oracles in place of the
// slotted arrays and with no scratch: the same merge target, the delta
// allocated and merged on fresh arrays (mergeFresh), then a copied row
// sample and regathered columns.
func extendCopying(p *DatasetProfile, f *frame.Frame) (*DatasetProfile, error) {
	old := p.Rows
	numeric, categorical := f.NumericColumns(), f.CategoricalColumns()
	centers := make([]float64, len(numeric))
	for i, nc := range numeric {
		centers[i] = p.Numeric[nc.Name()].ProjCenter
	}
	out := p.mergeTarget()
	cfg := out.Config
	cfg.Spearman = false
	delta := buildRange(f, cfg, old, f.Rows(), centers, nil)
	if err := mergeFresh(out, delta); err != nil {
		return nil, err
	}
	idx, slots := rowSampleExtendedCopy(p.RowSample.Indexes(), old, f.Rows(), cfg.RowSampleSize, cfg.Seed+1)
	out.RowSample = &RowSample{indexes: builtSlots(idx)}
	for _, nc := range numeric {
		out.Numeric[nc.Name()].gather = builtGather(regather(p.Numeric[nc.Name()].gather.get(), nc.Values(), idx, slots))
	}
	for _, cc := range categorical {
		cp := out.Categorical[cc.Name()]
		cp.codes = builtGather(regather(p.Categorical[cc.Name()].codes.get(), cc.Codes(), idx, slots))
		cp.Cardinality = cc.Cardinality()
		cp.Dict = cc.Dict()
	}
	out.Rows = f.Rows()
	return out, nil
}

// gappyFrame is testFrame with a numeric column missing every fifth
// cell, so its gathers hold missing cells.
func gappyFrame(n int, seed int64) *frame.Frame {
	base := testFrame(n, seed)
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = math.NaN()
		if i%5 != 0 {
			gaps[i] = math.Sin(float64(i))
		}
	}
	cols := make([]frame.Column, 0, base.Cols()+1)
	for i := range base.Cols() {
		cols = append(cols, base.Column(i))
	}
	return frame.MustNew("gappy", append(cols, frame.NewNumericColumn("gaps", gaps))...)
}

// readSamples reads every sample array of p, each with probability
// prob under rng, or all of them when rng is nil.
func readSamples(p *DatasetProfile, rng *rand.Rand, prob float64) {
	read := func() bool { return rng == nil || rng.Float64() < prob }
	if read() {
		p.RowSample.Indexes()
	}
	for _, name := range sortedProfileNames(p) {
		if np, ok := p.Numeric[name]; ok {
			if read() {
				np.gather.get()
			}
		} else if read() {
			p.Categorical[name].codes.get()
		}
	}
}

// sameSamples reports the first sample array of got that differs from
// want's, bit for bit, or "".
func sameSamples(got, want *DatasetProfile) string {
	if !slices.Equal(got.RowSample.Indexes(), want.RowSample.Indexes()) {
		return "row sample"
	}
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for _, name := range sortedProfileNames(want) {
		if wn, ok := want.Numeric[name]; ok {
			gn := got.Numeric[name]
			if !bits(gn.gather.get(), wn.gather.get()) {
				return name + " gather"
			}
		} else if !slices.Equal(got.Categorical[name].codes.get(), want.Categorical[name].codes.get()) {
			return name + " codes"
		}
	}
	return ""
}

// TestSlottedExtendMatchesCopying: along random ingest chains — batches
// of 1 to 3 000 rows, one of them over 1 024, onto two bases under the
// row sample's capacity, so both fill phases run, and onto one large enough that most batches
// leave their arrays unbuilt — every generation's sample arrays equal the
// copying oracles' and the generation saves to the oracle's bytes,
// whether the chain was read at random points or not at all until the
// end. Now and then a generation is first extended by another batch
// too (a sibling, which claims its write list's room), so that the
// chain's own successor must leave the sibling's writes alone.
func TestSlottedExtendMatchesCopying(t *testing.T) {
	const steps, siblingRows = 9, 3000
	src := gappyFrame(12000+steps*3000+siblingRows, 7)
	siblingAt := src.Rows() - siblingRows
	for c, tc := range []struct {
		base int
		read float64 // chance that a generation's array is read as it is made
	}{
		{700, 0}, {700, 0.5}, {1500, 0}, {1500, 0.3}, {1500, 1}, {12000, 0}, {12000, 0.3},
	} {
		rng := rand.New(rand.NewSource(int64(c) + 1))
		keep := make([]bool, src.Rows())
		for i := range tc.base {
			keep[i] = true
		}
		f, err := src.FilterRows(keep)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ProfileConfig{Seed: int64(c), K: 32}
		live := BuildProfile(f, cfg)
		oracle := BuildProfile(f, cfg)
		gens, oracles := []*DatasetProfile{live}, []*DatasetProfile{oracle}
		big := rng.Intn(steps)
		for i, at := 0, tc.base; i < steps; i++ {
			rows := 1 + rng.Intn([]int{30, 300, 3000}[rng.Intn(3)])
			if i == big {
				rows = 1025 + rng.Intn(1976)
			}
			if rng.Intn(3) == 0 {
				sf, err := f.AppendRows(rowsOf(src, siblingAt, siblingAt+1+rng.Intn(rows)), nil)
				if err != nil {
					t.Fatal(err)
				}
				sibling, err := live.Extend(sf)
				if err != nil {
					t.Fatal(err)
				}
				so, err := extendCopying(oracle, sf)
				if err != nil {
					t.Fatal(err)
				}
				gens, oracles = append(gens, sibling), append(oracles, so)
			}
			if f, err = f.AppendRows(rowsOf(src, at, at+rows), nil); err != nil {
				t.Fatal(err)
			}
			at += rows
			if live, err = live.Extend(f); err != nil {
				t.Fatal(err)
			}
			if oracle, err = extendCopying(oracle, f); err != nil {
				t.Fatal(err)
			}
			readSamples(live, rng, tc.read)
			gens, oracles = append(gens, live), append(oracles, oracle)
		}
		for i, g := range gens {
			label := fmt.Sprintf("base %d, read %.1f, generation %d", tc.base, tc.read, i)
			if what := sameSamples(g, oracles[i]); what != "" {
				t.Errorf("%s: %s differs from the copying oracle's", label, what)
			}
			if !bytes.Equal(saveBytes(t, g), saveBytes(t, oracles[i])) {
				t.Errorf("%s: saves to other bytes than the copying oracle", label)
			}
		}
	}
}

// TestExtendChainAllocatesNoSampleArray: twenty 250-row Extends in a
// chain nobody reads allocate no array of a sample's length — no row
// sample's or gather's (2 048 cells, the smallest a gather of codes) —
// and the first read then builds each array to what the copying
// oracle holds. Every allocation is in the memory profile (rate 1), an
// allocation's size is its record's bytes over its objects, and an
// allocation is Extend's when Extend is on its stack. K is small
// enough that no projection block reaches the smallest sample array's
// bytes.
func TestExtendChainAllocatesNoSampleArray(t *testing.T) {
	const base, batch, chain = 50000, 250, 20
	src := gappyFrame(base+chain*batch, 3)
	keep := make([]bool, src.Rows())
	for i := range base {
		keep[i] = true
	}
	f, err := src.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	numericOnly := selectColumns(t, f, "x", "y", "z", "skew", "gaps")
	frames := make([]*frame.Frame, chain)
	at, g := base, numericOnly
	for i := range frames {
		batchRows := rowsOf(src, at, at+batch)
		for r, rec := range batchRows.Records {
			batchRows.Records[r] = append(rec[:4:4], rec[5]) // drop cat
		}
		if g, err = g.AppendRows(batchRows, nil); err != nil {
			t.Fatal(err)
		}
		frames[i], at = g, at+batch
	}
	cfg := ProfileConfig{Seed: 2, K: 4}
	p, oracle := BuildProfile(numericOnly, cfg), BuildProfile(numericOnly, cfg)
	smallest := int64(4 * p.Config.RowSampleSize) // a gather of int32 codes

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := extendAllocs()
	for _, fi := range frames {
		if p, err = p.Extend(fi); err != nil {
			t.Fatal(err)
		}
	}
	after := extendAllocs()
	for site, n := range after {
		if site.size >= smallest && n > before[site] {
			t.Errorf("the chain allocated %d objects of %d bytes at %s", n-before[site], site.size, site.where)
		}
	}
	if p.RowSample.indexes.pending.Load() == nil {
		t.Error("the chain's row sample was built before anyone read it")
	}
	for _, fi := range frames {
		if oracle, err = extendCopying(oracle, fi); err != nil {
			t.Fatal(err)
		}
	}
	if what := sameSamples(p, oracle); what != "" {
		t.Errorf("after the chain: %s differs from the copying oracle's", what)
	}
}

// allocSite is a memory-profile record's size and stack, printed.
type allocSite struct {
	size  int64
	where string
}

// extendAllocs returns the allocation count of each (size, stack) of
// the memory profile whose stack passes through Extend.
func extendAllocs() map[allocSite]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := make(map[allocSite]int64)
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		var where []string
		ours := false
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			where = append(where, fr.Function)
			ours = ours || fr.Function == "foresight/internal/sketch.(*DatasetProfile).Extend"
			if !more {
				break
			}
		}
		if ours {
			out[allocSite{r.AllocBytes / r.AllocObjects, strings.Join(where, " < ")}] += r.AllocObjects
		}
	}
	return out
}

// unreadGeneration returns the end of a three-link Extend chain that
// nobody has read, and the copying oracle's generation for it.
func unreadGeneration(t *testing.T) (p, oracle *DatasetProfile) {
	t.Helper()
	src := gappyFrame(6000+3*250, 11)
	keep := make([]bool, src.Rows())
	for i := range 6000 {
		keep[i] = true
	}
	f, err := src.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProfileConfig{Seed: 5, K: 32, Workers: 2}
	p, oracle = BuildProfile(f, cfg), BuildProfile(f, cfg)
	for i := range 3 {
		if f, err = f.AppendRows(rowsOf(src, 6000+i*250, 6000+(i+1)*250), nil); err != nil {
			t.Fatal(err)
		}
		if p, err = p.Extend(f); err != nil {
			t.Fatal(err)
		}
		if oracle, err = extendCopying(oracle, f); err != nil {
			t.Fatal(err)
		}
	}
	return p, oracle
}

// TestSlottedFirstReadsRaceSave: eight goroutines make the first read
// of every sample array of one unread generation while a Save of it
// runs (run with -race). Each array is built once, every reader sees
// the copying oracle's array, and the Save writes the oracle's bytes.
func TestSlottedFirstReadsRaceSave(t *testing.T) {
	p, oracle := unreadGeneration(t)
	want := saveBytes(t, oracle)

	var mu sync.Mutex
	builds := 0
	SetTimingObserver(func(op string, _ time.Duration) {
		if op == "sample.build" {
			mu.Lock()
			builds++
			mu.Unlock()
		}
	})
	defer SetTimingObserver(nil)

	start := make(chan struct{})
	var wg sync.WaitGroup
	var saved bytes.Buffer
	var saveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		saveErr = p.Save(&saved)
	}()
	diffs := make([]string, 8)
	for g := range diffs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			readSamples(p, nil, 1)
			diffs[g] = sameSamples(p, oracle)
		}()
	}
	close(start)
	wg.Wait()
	if saveErr != nil {
		t.Fatal(saveErr)
	}
	if !bytes.Equal(saved.Bytes(), want) {
		t.Error("a Save racing the first reads wrote other bytes than the copying oracle's")
	}
	for g, what := range diffs {
		if what != "" {
			t.Errorf("reader %d: %s differs from the copying oracle's", g, what)
		}
	}
	if arrays := 1 + len(p.Numeric) + len(p.Categorical); builds != arrays {
		t.Errorf("%d sample builds for %d arrays, each left unbuilt by the chain: want one each", builds, arrays)
	}
}

// TestSampleFirstCallsRaceSave: eight goroutines make the first Sample
// call on one unread generation while a Save of it runs (run with
// -race). They all get one frame, whose columns are the copying
// oracle's arrays, and the Save writes the oracle's bytes.
func TestSampleFirstCallsRaceSave(t *testing.T) {
	p, oracle := unreadGeneration(t)
	want := saveBytes(t, oracle)

	start := make(chan struct{})
	var wg sync.WaitGroup
	var saved bytes.Buffer
	var saveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		saveErr = p.Save(&saved)
	}()
	frames := make([]*frame.Frame, 8)
	for g := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			frames[g] = p.Sample()
		}()
	}
	close(start)
	wg.Wait()
	if saveErr != nil {
		t.Fatal(saveErr)
	}
	if !bytes.Equal(saved.Bytes(), want) {
		t.Error("a Save racing the first Sample calls wrote other bytes than the copying oracle's")
	}
	for g, f := range frames {
		if f != frames[0] {
			t.Fatalf("caller %d got a frame of its own", g)
		}
	}
	for _, name := range sortedProfileNames(oracle) {
		if np, ok := oracle.Numeric[name]; ok {
			col, _ := frames[0].Numeric(name)
			if !slices.EqualFunc(col.Values(), np.gather.get(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Errorf("%s: the sample column differs from the copying oracle's gather", name)
			}
			continue
		}
		col, _ := frames[0].Categorical(name)
		if cp := oracle.Categorical[name]; !slices.Equal(col.Codes(), cp.codes.get()) || !slices.Equal(col.Dict(), cp.Dict) {
			t.Errorf("%s: the sample column differs from the copying oracle's codes", name)
		}
	}
}
