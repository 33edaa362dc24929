package sketch

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"foresight/internal/frame"
)

func TestProfileSaveLoadRoundTrip(t *testing.T) {
	f := testFrame(8000, 31)
	orig := BuildProfile(f, ProfileConfig{Seed: 4, K: 128, Spearman: true})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rows != orig.Rows {
		t.Fatalf("rows = %d, want %d", loaded.Rows, orig.Rows)
	}
	if loaded.Config.K != orig.Config.K || loaded.Config.Seed != orig.Config.Seed {
		t.Error("config not restored")
	}
	if len(loaded.Numeric) != len(orig.Numeric) || len(loaded.Categorical) != len(orig.Categorical) {
		t.Fatal("profile shape changed")
	}

	// Every estimator must answer identically after the round trip.
	for name, onp := range orig.Numeric {
		lnp := loaded.Numeric[name]
		if lnp == nil {
			t.Fatalf("numeric profile %q lost", name)
		}
		if onp.Moments != lnp.Moments {
			t.Errorf("%s: moments differ", name)
		}
		for _, q := range []float64{0.1, 0.5, 0.9} {
			if a, b := onp.Quantiles.Quantile(q), lnp.Quantiles.Quantile(q); a != b {
				t.Errorf("%s: q%v differs: %v vs %v", name, q, a, b)
			}
		}
		if onp.OutlierScoreEstimate(0) != lnp.OutlierScoreEstimate(0) {
			t.Errorf("%s: outlier estimate differs", name)
		}
		if len(onp.RowSampleValues()) != len(lnp.RowSampleValues()) {
			t.Errorf("%s: row sample values lost", name)
		}
	}
	for _, pair := range [][2]string{{"x", "y"}, {"x", "z"}, {"y", "skew"}} {
		a, err := orig.EstimatePearson(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.EstimatePearson(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("pearson(%v) differs: %v vs %v", pair, a, b)
		}
		as, err := orig.EstimateSpearman(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		bs, err := loaded.EstimateSpearman(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if as != bs {
			t.Errorf("spearman(%v) differs: %v vs %v", pair, as, bs)
		}
	}
	for name, ocp := range orig.Categorical {
		lcp := loaded.Categorical[name]
		if lcp == nil {
			t.Fatalf("categorical profile %q lost", name)
		}
		if ocp.Heavy.RelFreqTopK(3) != lcp.Heavy.RelFreqTopK(3) {
			t.Errorf("%s: heavy hitters differ", name)
		}
		if ocp.EntropyEstimate() != lcp.EntropyEstimate() {
			t.Errorf("%s: entropy differs", name)
		}
		if ocp.Distinct.Distinct() != lcp.Distinct.Distinct() {
			t.Errorf("%s: distinct differs", name)
		}
		if lcp.Cardinality != ocp.Cardinality {
			t.Errorf("%s: cardinality differs", name)
		}
	}
	// Row sample restored.
	if loaded.RowSample.Len() != orig.RowSample.Len() {
		t.Error("row sample lost")
	}
}

func TestProfileLoadedSketchesStillUpdatable(t *testing.T) {
	f := testFrame(2000, 32)
	orig := BuildProfile(f, ProfileConfig{Seed: 1, K: 64})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	np := loaded.Numeric["x"]
	before := np.Quantiles.Count()
	// Post-load updates must keep working (fresh compaction coin).
	for i := 0; i < 50000; i++ {
		np.Quantiles.Update(float64(i % 100))
	}
	if np.Quantiles.Count() != before+50000 {
		t.Error("post-load KLL updates broken")
	}
	if med := np.Quantiles.Median(); math.IsNaN(med) {
		t.Error("post-load median NaN")
	}
	cp := loaded.Categorical["cat"]
	cp.Heavy.Update("newitem")
	if _, ok := cp.Heavy.Estimate("newitem"); !ok && cp.Heavy.TrackedItems() < 64 {
		t.Error("post-load SpaceSaving update broken")
	}
	cp.Distinct.Update("newitem")
	// Reservoir updates.
	np.Sample.Update(1.5)
}

func TestLoadProfileErrors(t *testing.T) {
	if _, err := LoadProfile(strings.NewReader("garbage")); err == nil {
		t.Error("garbage input should fail")
	}
	if _, err := LoadProfile(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	// A store of the previous wire version decodes (same layout) but its
	// dots follow the old direction stream: refused, with what to do.
	var v2 bytes.Buffer
	if err := gob.NewEncoder(&v2).Encode(profileWire{Version: 2, Rows: 10}); err != nil {
		t.Fatal(err)
	}
	_, err := LoadProfile(&v2)
	if !errors.Is(err, ErrProfileVersion) || !strings.Contains(err.Error(), "rebuild with `foresight profile`") {
		t.Errorf("version-2 store: err = %v, want ErrProfileVersion naming the rebuild command", err)
	}
}

func TestProfileSaveDeterministic(t *testing.T) {
	f := testFrame(1000, 33)
	p := BuildProfile(f, ProfileConfig{Seed: 2, K: 32})
	var a, b bytes.Buffer
	if err := p.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Save output not deterministic")
	}
}

// TestPersistKLLBoundaryStates: the wire format stores raw compactor
// levels, so a sketch persisted mid-compaction — levels freshly grown
// by merges, lower levels over their steady-state fill — must reload
// to the exact same query state and keep compacting correctly when
// updated further.
func TestPersistKLLBoundaryStates(t *testing.T) {
	// Merging many small sketches piles items across levels and forces
	// grow() inside Merge — the messiest internal state KLL reaches.
	s := NewKLL(16, 1)
	for part := 0; part < 12; part++ {
		p := NewKLL(16, int64(part)+2)
		for i := 0; i < 300; i++ {
			p.Update(float64(part*300 + i))
		}
		if err := s.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	loaded := kllFromWire(kllToWire(s))
	if loaded.Count() != s.Count() || loaded.K() != s.K() {
		t.Fatalf("count/k: %d/%d vs %d/%d", loaded.Count(), loaded.K(), s.Count(), s.K())
	}
	if loaded.StoredItems() != s.StoredItems() {
		t.Fatalf("stored items %d vs %d", loaded.StoredItems(), s.StoredItems())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
		if a, b := s.Quantile(q), loaded.Quantile(q); a != b {
			t.Fatalf("Quantile(%v): %v vs %v", q, a, b)
		}
	}
	for _, x := range []float64{-1, 0, 500, 1800, 3600} {
		if a, b := s.Rank(x), loaded.Rank(x); a != b {
			t.Fatalf("Rank(%v): %d vs %d", x, a, b)
		}
	}
	// The reloaded sketch must keep absorbing updates (compaction
	// machinery intact after reconstructing maxSize from the levels).
	for i := 0; i < 5000; i++ {
		loaded.Update(float64(i))
	}
	if loaded.Count() != s.Count()+5000 {
		t.Fatalf("post-load updates lost: %d", loaded.Count())
	}
	if loaded.StoredItems() >= int(loaded.Count()) {
		t.Fatal("reloaded sketch never compacted")
	}
}

// TestPersistSpaceSavingTrimmedState: a merge of two at-capacity
// sketches over disjoint items trims back to capacity and leaves a
// nonzero untracked bound. Both the trimmed counters (with inflated
// err) and the bound must survive the wire round trip — dropping the
// bound would resurrect the fuzz-found "zero floor" unsoundness on
// reload.
func TestPersistSpaceSavingTrimmedState(t *testing.T) {
	a, b := NewSpaceSaving(4), NewSpaceSaving(4)
	for i := 0; i < 6; i++ {
		for j := 0; j <= i; j++ {
			a.Update(fmt.Sprintf("a%d", i))
			b.Update(fmt.Sprintf("b%d", i))
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.TrackedItems() != 4 {
		t.Fatalf("trimmed to %d, want capacity 4", a.TrackedItems())
	}
	if a.UntrackedBound() == 0 {
		t.Fatal("merged+trimmed sketch must carry a nonzero untracked bound")
	}
	loaded := spaceSavingFromWire(spaceSavingToWire(a))
	if loaded.Count() != a.Count() || loaded.Capacity() != a.Capacity() {
		t.Fatalf("count/capacity: %d/%d vs %d/%d",
			loaded.Count(), loaded.Capacity(), a.Count(), a.Capacity())
	}
	if got, want := loaded.UntrackedBound(), a.UntrackedBound(); got != want {
		t.Fatalf("UntrackedBound after round trip = %d, want %d", got, want)
	}
	at, lt := a.Top(0), loaded.Top(0)
	if len(at) != len(lt) {
		t.Fatalf("top lengths %d vs %d", len(at), len(lt))
	}
	for i := range at {
		if at[i] != lt[i] {
			t.Fatalf("top[%d]: %+v vs %+v", i, at[i], lt[i])
		}
	}
}

// TestPersistEmptyProfile: a profile of a zero-row frame — empty
// reservoirs, empty KLL (no compactors filled), zero-count moments —
// must round-trip and answer queries identically (NaN for NaN).
func TestPersistEmptyProfile(t *testing.T) {
	f := frame.MustNew("empty",
		frame.NewNumericColumn("x", nil),
		frame.NewCategoricalColumn("cat", nil),
	)
	p := BuildProfile(f, ProfileConfig{Seed: 5})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rows != 0 {
		t.Fatalf("rows = %d", loaded.Rows)
	}
	np := loaded.Numeric["x"]
	if np == nil {
		t.Fatal("numeric profile lost")
	}
	if got := np.Quantiles.Median(); !math.IsNaN(got) {
		t.Fatalf("empty median = %v, want NaN", got)
	}
	if n := len(np.Sample.Sample()); n != 0 {
		t.Fatalf("empty reservoir reloaded with %d items", n)
	}
	if np.Sample.Count() != 0 {
		t.Fatalf("empty reservoir count = %d", np.Sample.Count())
	}
	// And it must still accept updates after reload.
	np.Sample.Update(1)
	if n := len(np.Sample.Sample()); n != 1 {
		t.Fatalf("post-reload reservoir update lost (%d items)", n)
	}
	cp := loaded.Categorical["cat"]
	if cp == nil || cp.Heavy.Count() != 0 || cp.Distinct.Count() != 0 {
		t.Fatal("empty categorical state not preserved")
	}
}

// loadAllocCeiling is the most LoadProfile may allocate for an l-byte
// input. The slope covers a column that states nothing: gob decodes an
// empty wire struct from a byte or two, and each becomes a profile of
// empty sketches. The constant covers gob's own state and the one
// buffer it allocates ahead of a slice length it has not yet checked
// against the input, which it caps at 10 MiB.
func loadAllocCeiling(l int) uint64 { return 2048*uint64(l) + 16<<20 }

// loadAllocBytes loads a profile from b and reports the heap bytes it
// allocated: the fewer of two runs, so an allocation elsewhere in the
// process during one of them does not count against the decoder.
func loadAllocBytes(b []byte) (*DatasetProfile, uint64, error) {
	var p *DatasetProfile
	var err error
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 2 {
		runtime.ReadMemStats(&before)
		p, err = LoadProfile(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return p, least, err
}

func savedProfile(t testing.TB, p *DatasetProfile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadProfile feeds arbitrary bytes to LoadProfile, which reads a
// store from outside the program (foresightd -profile, selfcheck
// -profile, every snapshot's profile section). It must never panic;
// its allocation stays under loadAllocCeiling whatever sizes the bytes
// state; and a profile it accepts saves to bytes that load and save
// again identically.
func FuzzLoadProfile(f *testing.F) {
	fr := testFrame(8, 5)
	plain := savedProfile(f, BuildProfile(fr, ProfileConfig{Seed: 1, K: 8}))
	ranked := savedProfile(f, BuildProfile(fr, ProfileConfig{Seed: 2, K: 8, Spearman: true}))
	// Every cut of the plain store; the ranked one shares its layout,
	// so a cut every few bytes covers the sections it adds.
	for n := range len(plain) {
		f.Add(plain[:n])
	}
	for n := 0; n < len(ranked); n += 16 {
		f.Add(ranked[:n])
	}
	f.Add(plain)
	f.Add(ranked)
	// A heavy-hitter sketch stating a capacity its counters never use.
	inflated := BuildProfile(fr, ProfileConfig{Seed: 1, K: 8})
	inflated.Categorical["cat"].Heavy.capacity = 1 << 26
	f.Add(savedProfile(f, inflated))

	f.Fuzz(func(t *testing.T, b []byte) {
		p, alloc, err := loadAllocBytes(b)
		if limit := loadAllocCeiling(len(b)); alloc > limit {
			t.Fatalf("loading %d bytes allocated %d, ceiling %d", len(b), alloc, limit)
		}
		if err != nil {
			return
		}
		once := savedProfile(t, p)
		again, err := LoadProfile(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("a saved profile does not load: %v", err)
		}
		if twice := savedProfile(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("load and save is not stable:\n once  %x\n twice %x", once, twice)
		}
	})
}
