package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// zipfStream produces a deterministic Zipf-ish stream over numItems
// items of total length n.
func zipfStream(n, numItems int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.3, 1, uint64(numItems-1))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("item%d", z.Uint64())
	}
	return out
}

func TestSpaceSavingExactWhenUnderCapacity(t *testing.T) {
	s := NewSpaceSaving(10)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			s.Update(fmt.Sprintf("v%d", i))
		}
	}
	if s.Count() != 15 {
		t.Fatalf("Count = %d, want 15", s.Count())
	}
	top := s.Top(2)
	if top[0].Item != "v4" || top[0].Count != 5 || top[0].Err != 0 {
		t.Errorf("top[0] = %+v, want v4×5 exact", top[0])
	}
	if top[1].Item != "v3" || top[1].Count != 4 {
		t.Errorf("top[1] = %+v, want v3×4", top[1])
	}
	if c, ok := s.Estimate("v2"); !ok || c != 3 {
		t.Errorf("Estimate(v2) = %d,%v", c, ok)
	}
	if _, ok := s.Estimate("nope"); ok {
		t.Error("untracked item should report ok=false")
	}
}

func TestSpaceSavingGuarantee(t *testing.T) {
	// Error ≤ N/capacity: any counter's overestimation (Err) is
	// bounded by total/capacity.
	stream := zipfStream(100000, 10000, 42)
	capacity := 100
	s := NewSpaceSaving(capacity)
	exact := map[string]uint64{}
	for _, item := range stream {
		s.Update(item)
		exact[item]++
	}
	bound := s.Count() / uint64(capacity)
	for _, h := range s.Top(0) {
		if h.Err > bound {
			t.Errorf("counter %s Err=%d exceeds N/m=%d", h.Item, h.Err, bound)
		}
		truth := exact[h.Item]
		if h.Count < truth {
			t.Errorf("SpaceSaving must overestimate: %s got %d < true %d", h.Item, h.Count, truth)
		}
		if h.Count-truth > bound {
			t.Errorf("overestimate of %s is %d, exceeds bound %d", h.Item, h.Count-truth, bound)
		}
	}
	// Top-10 heavy hitters of a Zipf stream must all be tracked, in
	// roughly the right order: item0 is the most frequent.
	top := s.Top(1)
	if top[0].Item != "item0" {
		t.Errorf("top item = %s, want item0", top[0].Item)
	}
}

func TestSpaceSavingRelFreq(t *testing.T) {
	s := NewSpaceSaving(10)
	for i := 0; i < 90; i++ {
		s.Update("big")
	}
	for i := 0; i < 10; i++ {
		s.Update(fmt.Sprintf("small%d", i))
	}
	rf := s.RelFreqTopK(1)
	if math.Abs(rf-0.9) > 1e-9 {
		t.Errorf("RelFreq(1) = %v, want 0.9", rf)
	}
	if f := s.RelFreqTopK(100); f > 1 {
		t.Errorf("RelFreq capped at 1, got %v", f)
	}
	empty := NewSpaceSaving(4)
	if empty.RelFreqTopK(3) != 0 {
		t.Error("empty RelFreq should be 0")
	}
}

func TestSpaceSavingWeightedAndEviction(t *testing.T) {
	s := NewSpaceSaving(2)
	s.UpdateWeighted("a", 10)
	s.UpdateWeighted("b", 5)
	s.Update("c") // evicts b (min), inherits count 5 → count 6, err 5
	if s.TrackedItems() != 2 {
		t.Fatalf("tracked = %d, want 2", s.TrackedItems())
	}
	c, ok := s.Estimate("c")
	if !ok || c != 6 {
		t.Errorf("Estimate(c) = %d,%v, want 6,true", c, ok)
	}
	s.UpdateWeighted("x", 0) // no-op
	if s.Count() != 16 {
		t.Errorf("Count = %d, want 16", s.Count())
	}
}

func TestSpaceSavingUpdateBytes(t *testing.T) {
	s := NewSpaceSaving(2)
	buf := []byte("a")
	s.UpdateBytes(buf)
	s.UpdateBytes(buf)
	// The sketch must own its keys: mutating the caller's buffer after
	// an update must not corrupt the tracked item.
	buf[0] = 'b'
	s.UpdateBytes(buf)
	if c, ok := s.Estimate("a"); !ok || c != 2 {
		t.Errorf("Estimate(a) = %d,%v, want 2,true", c, ok)
	}
	if c, ok := s.Estimate("b"); !ok || c != 1 {
		t.Errorf("Estimate(b) = %d,%v, want 1,true", c, ok)
	}
	s.UpdateBytes([]byte("c")) // at capacity: evicts b, inherits err
	if c, ok := s.Estimate("c"); !ok || c != 2 {
		t.Errorf("Estimate(c) = %d,%v, want 2,true", c, ok)
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d, want 4", s.Count())
	}
	buf[0] = 'a' // "a" is still tracked; updating it must not allocate
	if n := testing.AllocsPerRun(100, func() { s.UpdateBytes(buf) }); n != 0 {
		t.Errorf("tracked-item UpdateBytes allocates %.0f times per run, want 0", n)
	}
}

func TestSpaceSavingMerge(t *testing.T) {
	a, b := NewSpaceSaving(4), NewSpaceSaving(4)
	for i := 0; i < 10; i++ {
		a.Update("x")
		b.Update("y")
	}
	a.Update("z")
	b.Update("z")
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Count() != 22 {
		t.Errorf("merged Count = %d, want 22", a.Count())
	}
	cz, _ := a.Estimate("z")
	if cz != 2 {
		t.Errorf("z = %d, want 2", cz)
	}
	if a.TrackedItems() > 4 {
		t.Errorf("merge must respect capacity, tracked %d", a.TrackedItems())
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("Merge(nil) = %v", err)
	}
}

// TestSpaceSavingMergeWeighted: merging a sketch with weight w counts
// its stream w times — exactly while nothing evicts, and bracketed
// (est − err ≤ true ≤ est) once the donor or the receiver has evicted
// — and leaves the donor as it was.
func TestSpaceSavingMergeWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	donor := NewSpaceSaving(8)
	truth := map[string]uint64{}
	for i := 0; i < 400; i++ {
		item := string(rune('a' + int(rng.ExpFloat64()*3)%20))
		donor.Update(item)
		truth[item]++
	}
	before := donor.Clone()
	recv := NewSpaceSaving(8)
	base := map[string]uint64{}
	for i := 0; i < 50; i++ {
		item := string(rune('a' + i%12))
		recv.Update(item)
		base[item]++
	}
	const w = 13
	recv.MergeWeighted(donor, w)
	if !reflect.DeepEqual(donor, before) {
		t.Fatal("MergeWeighted changed its donor")
	}
	if recv.Count() != 50+w*400 {
		t.Errorf("Count = %d, want %d", recv.Count(), 50+w*400)
	}
	for _, h := range recv.Top(0) {
		if n := base[h.Item] + w*truth[h.Item]; n > h.Count || n < h.Count-h.Err {
			t.Errorf("%s: true %d outside [%d, %d]", h.Item, n, h.Count-h.Err, h.Count)
		}
	}
	for item, n := range truth {
		if _, ok := recv.Estimate(item); !ok && base[item]+w*n > recv.UntrackedBound() {
			t.Errorf("untracked %s: true %d above the bound %d", item, base[item]+w*n, recv.UntrackedBound())
		}
	}

	small, exact := NewSpaceSaving(4), NewSpaceSaving(4)
	small.Update("x")
	small.UpdateWeighted("y", 3)
	exact.MergeWeighted(small, 5)
	if x, _ := exact.Estimate("x"); x != 5 {
		t.Errorf("x = %d, want 5", x)
	}
	if y, _ := exact.Estimate("y"); y != 15 {
		t.Errorf("y = %d, want 15", y)
	}
	exact.MergeWeighted(small, 0)
	exact.MergeWeighted(nil, 2)
	if exact.Count() != 20 {
		t.Errorf("weight 0 and a nil donor changed the count to %d", exact.Count())
	}

	// The donor evicted "a" (true count 1, untracked bound 1); the
	// receiver tracks it. Ten copies of the donor hold it ten times, so
	// the bound is raised tenfold too.
	evicted, recvA := NewSpaceSaving(2), NewSpaceSaving(4)
	for _, item := range []string{"a", "b", "c"} {
		evicted.Update(item)
	}
	recvA.Update("a")
	recvA.MergeWeighted(evicted, 10)
	if a, _ := recvA.Estimate("a"); a < 11 {
		t.Errorf("a = %d below its true count 11", a)
	}
}

func TestSpaceSavingClone(t *testing.T) {
	s := NewSpaceSaving(4)
	for i := 0; i < 10; i++ {
		s.Update("x")
	}
	s.Update("y")
	c := s.Clone()
	if c.Count() != s.Count() || c.TrackedItems() != s.TrackedItems() {
		t.Fatalf("clone shape mismatch: n=%d/%d tracked=%d/%d",
			c.Count(), s.Count(), c.TrackedItems(), s.TrackedItems())
	}
	// Mutating the clone must not touch the original's counters.
	for i := 0; i < 100; i++ {
		c.Update("y")
	}
	if cy, _ := s.Estimate("y"); cy != 1 {
		t.Errorf("updating the clone changed the original: y = %d, want 1", cy)
	}
	if cy, _ := c.Estimate("y"); cy != 101 {
		t.Errorf("clone y = %d, want 101", cy)
	}
}

// Property: merged count equals sum of counts; capacity respected.
func TestQuickSpaceSavingMerge(t *testing.T) {
	prop := func(xs, ys []uint8) bool {
		a, b := NewSpaceSaving(8), NewSpaceSaving(8)
		for _, x := range xs {
			a.Update(fmt.Sprintf("i%d", x%32))
		}
		for _, y := range ys {
			b.Update(fmt.Sprintf("i%d", y%32))
		}
		want := a.Count() + b.Count()
		if err := a.Merge(b); err != nil {
			return false
		}
		return a.Count() == want && a.TrackedItems() <= 8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKMVExactSmall(t *testing.T) {
	s := NewKMV(1024)
	for i := 0; i < 100; i++ {
		s.Update(fmt.Sprintf("v%d", i%10)) // 10 distinct
	}
	if d := s.Distinct(); math.Abs(d-10) > 1e-9 {
		t.Errorf("Distinct = %v, want exactly 10 (under k)", d)
	}
	if s.Count() != 100 {
		t.Errorf("Count = %d", s.Count())
	}
	empty := NewKMV(64)
	if empty.Distinct() != 0 {
		t.Error("empty KMV should estimate 0")
	}
}

func TestKMVAccuracyLarge(t *testing.T) {
	s := NewKMV(2048)
	trueDistinct := 50000
	for i := 0; i < trueDistinct; i++ {
		s.Update(fmt.Sprintf("key-%d", i))
	}
	est := s.Distinct()
	relErr := math.Abs(est-float64(trueDistinct)) / float64(trueDistinct)
	if relErr > 0.08 {
		t.Errorf("Distinct = %v, rel err %v > 8%%", est, relErr)
	}
}

func TestKMVMerge(t *testing.T) {
	a, b := NewKMV(1024), NewKMV(1024)
	for i := 0; i < 5000; i++ {
		a.Update(fmt.Sprintf("a%d", i))
		b.Update(fmt.Sprintf("b%d", i))
	}
	// 2500 overlapping keys.
	for i := 0; i < 2500; i++ {
		b.Update(fmt.Sprintf("a%d", i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	est := a.Distinct()
	if math.Abs(est-10000)/10000 > 0.1 {
		t.Errorf("merged Distinct = %v, want ≈10000", est)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("Merge(nil) = %v", err)
	}
}

func TestKMVSmallKCoerced(t *testing.T) {
	s := NewKMV(1)
	if s.k != 16 {
		t.Errorf("k coerced to %d, want 16", s.k)
	}
	s2 := NewKMV(0)
	if s2.k != 1024 {
		t.Errorf("k default = %d, want 1024", s2.k)
	}
}

func TestReservoirBasics(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 5; i++ {
		r.Update(float64(i))
	}
	if len(r.Sample()) != 5 || r.Count() != 5 {
		t.Errorf("under-capacity reservoir wrong: %v", r.Sample())
	}
	for i := 5; i < 10000; i++ {
		r.Update(float64(i))
	}
	if len(r.Sample()) != 10 {
		t.Errorf("capacity overflow: %d items", len(r.Sample()))
	}
	if r.Count() != 10000 {
		t.Errorf("Count = %d", r.Count())
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Mean of a large reservoir over 1..n should approximate (n+1)/2.
	r := NewReservoir(2000, 99)
	n := 100000
	for i := 1; i <= n; i++ {
		r.Update(float64(i))
	}
	sum := 0.0
	for _, v := range r.Sample() {
		sum += v
	}
	mean := sum / float64(len(r.Sample()))
	if math.Abs(mean-float64(n+1)/2) > 2500 {
		t.Errorf("reservoir mean = %v, want ≈%v", mean, float64(n+1)/2)
	}
}

func TestRowSample(t *testing.T) {
	s := NewRowSample(100, 10, 1)
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	seen := map[int]bool{}
	for _, idx := range s.Indexes() {
		if idx < 0 || idx >= 100 {
			t.Fatalf("index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
	// capacity ≥ n → all rows.
	full := NewRowSample(5, 100, 1)
	if full.Len() != 5 {
		t.Errorf("full sample Len = %d", full.Len())
	}
	vals := []float64{10, 11, 12, 13, 14}
	if got := full.GatherFloats(vals); len(got) != 5 || got[2] != 12 {
		t.Errorf("GatherFloats = %v", got)
	}
	codes := []int32{1, 2, 3, 4, 5}
	if got := full.GatherCodes(codes); len(got) != 5 || got[4] != 5 {
		t.Errorf("GatherCodes = %v", got)
	}
	// Gather beyond bounds is safe.
	if got := full.GatherFloats(vals[:2]); len(got) != 2 {
		t.Errorf("short gather = %v", got)
	}
}

func TestEntropyEstimateComposition(t *testing.T) {
	// Skewed distribution: heavy hitters dominate entropy.
	stream := zipfStream(50000, 5000, 13)
	heavy := NewSpaceSaving(128)
	distinct := NewKMV(2048)
	exact := map[string]int{}
	for _, item := range stream {
		heavy.Update(item)
		distinct.Update(item)
		exact[item]++
	}
	counts := make([]int, 0, len(exact))
	for _, c := range exact {
		counts = append(counts, c)
	}
	trueH := exactEntropy(counts)
	estH := EntropyEstimate(heavy, distinct)
	if math.Abs(estH-trueH)/trueH > 0.15 {
		t.Errorf("entropy estimate %v vs exact %v (rel err >15%%)", estH, trueH)
	}
	u := NormalizedEntropyEstimate(heavy, distinct)
	if u < 0 || u > 1 {
		t.Errorf("normalized entropy estimate %v out of [0,1]", u)
	}
}

func exactEntropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(total)
			h -= p * math.Log(p)
		}
	}
	return h
}

func TestEntropyEstimateEdgeCases(t *testing.T) {
	if EntropyEstimate(nil, nil) != 0 {
		t.Error("nil sketches should estimate 0")
	}
	empty := NewSpaceSaving(8)
	if EntropyEstimate(empty, NewKMV(64)) != 0 {
		t.Error("empty stream should estimate 0")
	}
	// Single-value stream → entropy 0.
	one := NewSpaceSaving(8)
	k := NewKMV(64)
	for i := 0; i < 100; i++ {
		one.Update("only")
		k.Update("only")
	}
	if h := EntropyEstimate(one, k); math.Abs(h) > 1e-9 {
		t.Errorf("single-value entropy = %v, want 0", h)
	}
	if u := NormalizedEntropyEstimate(one, k); u != 0 {
		t.Errorf("single-value uniformity = %v, want 0", u)
	}
	// Uniform small-cardinality stream → ln(k), uniformity ≈ 1.
	uni := NewSpaceSaving(8)
	kd := NewKMV(64)
	for i := 0; i < 400; i++ {
		item := fmt.Sprintf("u%d", i%4)
		uni.Update(item)
		kd.Update(item)
	}
	if h := EntropyEstimate(uni, kd); math.Abs(h-math.Log(4)) > 0.01 {
		t.Errorf("uniform-4 entropy = %v, want %v", h, math.Log(4))
	}
	if u := NormalizedEntropyEstimate(uni, kd); u < 0.99 {
		t.Errorf("uniform-4 uniformity = %v, want ≈1", u)
	}
}
