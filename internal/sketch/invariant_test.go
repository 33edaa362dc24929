package sketch

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// The tests in this file pin the merge-algebra bugfixes found by the
// sketchcheck fuzz harness (PR 8) as plain table tests, so the
// invariants stay guarded even when fuzzing is skipped.

// TestKLLMergeKeepsSmallerK: merging a coarser sketch (larger rank
// error) into a finer one must keep the coarser k, otherwise the
// merged sketch advertises a 4/k bound the folded-in items cannot
// support. Pre-fix, Merge kept the receiver's k unconditionally.
func TestKLLMergeKeepsSmallerK(t *testing.T) {
	fine := NewKLL(256, 1)
	coarse := NewKLL(8, 2)
	for i := 0; i < 5000; i++ {
		fine.Update(float64(i))
		coarse.Update(float64(i) + 0.5)
	}
	if err := fine.Merge(coarse); err != nil {
		t.Fatal(err)
	}
	if fine.K() != 8 {
		t.Fatalf("merged K = %d, want the coarser input's 8", fine.K())
	}
	if want := 4.0 / 8; fine.RankErrorBound() != want {
		t.Fatalf("RankErrorBound = %v, want %v", fine.RankErrorBound(), want)
	}
	if fine.Count() != 10000 {
		t.Fatalf("Count = %d, want 10000", fine.Count())
	}
	// The coarser direction must agree.
	other := NewKLL(8, 3)
	other.Update(1)
	fineFirst := NewKLL(256, 4)
	fineFirst.Update(2)
	if err := other.Merge(fineFirst); err != nil {
		t.Fatal(err)
	}
	if other.K() != 8 {
		t.Fatalf("merged K = %d, want 8", other.K())
	}
}

// TestKMVMergeKeepsSmallerK: the KMV union of a k=64 and a k=256
// sketch can only be trusted to the 64 smallest hashes; keeping the
// larger k biases Distinct() low (the estimator reads
// (k−1)/h_(k) with too-large a k for the retained hash set).
// Pre-fix, Merge kept the receiver's k, so merge order changed the
// estimate. Post-fix both orders equal the one-pass k=64 sketch
// exactly — the hash is unkeyed, so the union's k smallest hashes are
// fully determined.
func TestKMVMergeKeepsSmallerK(t *testing.T) {
	stream := func(lo, hi int) []string {
		items := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			items = append(items, fmt.Sprintf("item-%d", i))
		}
		return items
	}
	left, right := stream(0, 3000), stream(2000, 6000)

	build := func(k int, streams ...[]string) *KMV {
		s := NewKMV(k)
		for _, st := range streams {
			for _, item := range st {
				s.Update(item)
			}
		}
		return s
	}
	one := build(64, left, right)

	big := build(256, left)
	if err := big.Merge(build(64, right)); err != nil {
		t.Fatal(err)
	}
	if big.K() != 64 {
		t.Fatalf("merged K = %d, want the smaller input's 64", big.K())
	}
	if big.Distinct() != one.Distinct() {
		t.Fatalf("merge into k=256 receiver: Distinct = %v, one-pass k=64 = %v",
			big.Distinct(), one.Distinct())
	}
	small := build(64, right)
	if err := small.Merge(build(256, left)); err != nil {
		t.Fatal(err)
	}
	if small.Distinct() != one.Distinct() {
		t.Fatalf("merge into k=64 receiver: Distinct = %v, one-pass = %v",
			small.Distinct(), one.Distinct())
	}
}

// TestSpaceSavingUntrackedBoundAfterMerge pins the fuzz-found merge
// unsoundness: merging a small-capacity sketch (which evicted items)
// into a large under-capacity receiver used to leave the merged
// sketch claiming a zero floor, i.e. "every untracked item has true
// count 0", while evicted items had nonzero counts. UntrackedBound
// must survive the merge.
func TestSpaceSavingUntrackedBoundAfterMerge(t *testing.T) {
	// Capacity-1 sketch: "gone" is evicted by "kept".
	small := NewSpaceSaving(1)
	for i := 0; i < 3; i++ {
		small.Update("gone")
	}
	for i := 0; i < 10; i++ {
		small.Update("kept")
	}
	if small.UntrackedBound() == 0 {
		t.Fatal("capacity-1 sketch with evictions reports zero untracked bound")
	}

	// Large receiver, far under capacity after the merge.
	big := NewSpaceSaving(64)
	big.Update("other")
	if err := big.Merge(small); err != nil {
		t.Fatal(err)
	}
	if big.TrackedItems() >= big.Capacity() {
		t.Fatalf("test premise broken: %d tracked of %d", big.TrackedItems(), big.Capacity())
	}
	if got := big.UntrackedBound(); got < 3 {
		t.Fatalf("UntrackedBound = %d after merge, want ≥ 3 (true count of evicted %q)", got, "gone")
	}
	// est ≥ true for the item tracked on only one side: "other"
	// occurred once in big's stream and could have occurred up to
	// small's bound in small's stream.
	if est, ok := big.Estimate("other"); !ok || est < 1 {
		t.Fatalf("Estimate(other) = %d,%v", est, ok)
	}
	// The bound must survive a clone.
	if got := big.Clone().UntrackedBound(); got < 3 {
		t.Fatalf("Clone().UntrackedBound() = %d, want ≥ 3", got)
	}
}

// TestProjectionMergeAssociativity: projection merges are vector
// additions, so they commute exactly (IEEE addition is commutative)
// and associate up to floating-point rounding — each reassociation
// can shift a dot by at most a few ulps, which we gate at 1e-12
// relative. Hyperplane bit vectors derived from either association
// agree whenever no dot sits within that rounding band of zero (here
// the dots are integer-valued, so the additions are exact and the
// bits must match bit-for-bit).
func TestProjectionMergeAssociativity(t *testing.T) {
	mk := func(part int) *Projection {
		p := &Projection{Dots: make([]float64, 64), Rows: 10, Seed: 7}
		for i := range p.Dots {
			// Integer dots, positive and negative, distinct per part.
			p.Dots[i] = float64((i%7-3)*(part+1)) + float64(part)
		}
		return p
	}
	p1, p2, p3 := mk(0), mk(1), mk(2)

	clone := func(p *Projection) *Projection {
		return &Projection{Dots: append([]float64(nil), p.Dots...), Rows: p.Rows, Seed: p.Seed}
	}
	// (p1 ⊕ p2) ⊕ p3
	left := clone(p1)
	if err := left.Merge(p2); err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(p3); err != nil {
		t.Fatal(err)
	}
	// p1 ⊕ (p2 ⊕ p3)
	rightInner := clone(p2)
	if err := rightInner.Merge(p3); err != nil {
		t.Fatal(err)
	}
	right := clone(p1)
	if err := right.Merge(rightInner); err != nil {
		t.Fatal(err)
	}
	// p2 ⊕ p1 ⊕ p3 (commuted)
	swapped := clone(p2)
	if err := swapped.Merge(p1); err != nil {
		t.Fatal(err)
	}
	if err := swapped.Merge(p3); err != nil {
		t.Fatal(err)
	}

	for i := range left.Dots {
		for _, other := range []*Projection{right, swapped} {
			diff := math.Abs(left.Dots[i] - other.Dots[i])
			tol := 1e-12 * math.Max(1, math.Abs(left.Dots[i]))
			if diff > tol {
				t.Fatalf("dot %d: %v vs %v (Δ %g > fp tolerance %g)",
					i, left.Dots[i], other.Dots[i], diff, tol)
			}
		}
	}
	if left.Rows != 30 || right.Rows != 30 {
		t.Fatalf("rows: %d / %d, want 30", left.Rows, right.Rows)
	}

	ha, hb := HyperplaneFromProjection(left), HyperplaneFromProjection(right)
	if d := ha.Hamming(hb); d != 0 {
		t.Fatalf("hyperplanes from the two associations differ in %d bits", d)
	}
	if hc := HyperplaneFromProjection(swapped); ha.Hamming(hc) != 0 {
		t.Fatal("hyperplane from commuted merge differs")
	}
}

// TestExtendLeavesReceiverIntact: Extend copies what a merge writes and
// shares the rest with its receiver, so an aliasing bug would show as
// the old profile — the one concurrent queries still hold — changing
// an answer or a saved byte. Readers hammer the receiver while a chain
// of extensions runs off it (under -race a write to anything shared is
// reported outright).
func TestExtendLeavesReceiverIntact(t *testing.T) {
	f := testFrame(2000, 9)
	src := testFrame(1200, 10)
	p := BuildProfile(f, ProfileConfig{Seed: 3, Spearman: true})
	want := saveBytes(t, p)

	type snapshot struct {
		median, outlier, pearson, spearman, entropy, distinct float64
		topItem                                               string
		topCount                                              uint64
		rowSample0, rowSampleMean                             float64
	}
	take := func(p *DatasetProfile) snapshot {
		var s snapshot
		s.median = p.Numeric["x"].Quantiles.Median()
		s.outlier = p.Numeric["x"].OutlierScoreEstimate(0)
		s.pearson, _ = p.EstimatePearson("x", "y")
		s.spearman, _ = p.EstimateSpearman("x", "y")
		s.entropy = p.Categorical["cat"].EntropyEstimate()
		s.distinct = p.Categorical["cat"].Distinct.Distinct()
		top := p.Categorical["cat"].Heavy.Top(1)
		s.topItem, s.topCount = top[0].Item, top[0].Count
		s.rowSample0 = p.Numeric["x"].RowSampleValues()[0]
		s.rowSampleMean = p.Numeric["x"].RowSampleOrdered().Mean
		return s
	}
	before := take(p)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := take(p); got != before {
					t.Errorf("receiver answers changed during Extend:\n before %+v\n now    %+v", before, got)
					return
				}
			}
		}()
	}

	// Every link extends the one before it, which shares with p what no
	// batch so far has written; each frame is also reached from p again,
	// on two workers.
	onWorkers := *p
	onWorkers.Config.Workers = 2
	cur, grown := p, f
	for i := 0; i < 6; i++ {
		var err error
		if grown, err = grown.AppendRows(rowsOf(src, i*200, (i+1)*200), nil); err != nil {
			t.Fatal(err)
		}
		if cur, err = cur.Extend(grown); err != nil {
			t.Fatal(err)
		}
		if _, err := onWorkers.Extend(grown); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	if after := take(p); after != before {
		t.Errorf("receiver answers changed after Extend:\n before %+v\n after  %+v", before, after)
	}
	if !slices.Equal(saveBytes(t, p), want) {
		t.Error("receiver saves to different bytes after Extend")
	}
	if cur.Rows != 3200 || p.Rows != 2000 {
		t.Errorf("rows: chain %d, receiver %d", cur.Rows, p.Rows)
	}
}

// TestEntropyResidualMassSmallTail exercises the dTail < 1 branch
// with a nonzero residual: merged SpaceSaving sketches inflate error
// bounds, pulling the midpoint mass below 1 while the KMV agrees all
// distinct items are tracked. The estimate must stay finite,
// non-negative, and normalized into [0,1].
func TestEntropyResidualMassSmallTail(t *testing.T) {
	// Two capacity-2 sketches over 3 distinct items force evictions
	// and err inflation through the merge.
	a, b := NewSpaceSaving(2), NewSpaceSaving(2)
	kmv := NewKMV(64)
	streamA := []string{"x", "x", "y", "z", "x", "y"}
	streamB := []string{"y", "z", "z", "x", "z", "y"}
	for _, it := range streamA {
		a.Update(it)
		kmv.Update(it)
	}
	for _, it := range streamB {
		b.Update(it)
		kmv.Update(it)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	h := EntropyEstimate(a, kmv)
	if math.IsNaN(h) || math.IsInf(h, 0) {
		t.Fatalf("EntropyEstimate = %v, want finite", h)
	}
	if h < 0 {
		t.Fatalf("EntropyEstimate = %v, want ≥ 0", h)
	}
	u := NormalizedEntropyEstimate(a, kmv)
	if math.IsNaN(u) || u < 0 || u > 1 {
		t.Fatalf("NormalizedEntropyEstimate = %v, want within [0,1]", u)
	}

	// Heavy sketch reporting more tracked items than the KMV has
	// distinct hashes (possible when the KMV is rebuilt or reloaded
	// separately): dTail goes negative, which must also route through
	// the single-pseudo-item branch without producing NaN.
	tiny := NewKMV(16)
	tiny.Update("x")
	h = EntropyEstimate(a, tiny)
	if math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
		t.Fatalf("EntropyEstimate with undersized KMV = %v, want finite ≥ 0", h)
	}
	u = NormalizedEntropyEstimate(a, tiny)
	if math.IsNaN(u) || u < 0 || u > 1 {
		t.Fatalf("NormalizedEntropyEstimate with undersized KMV = %v", u)
	}
}
