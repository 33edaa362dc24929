package sketchcheck

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// violations returns nil when r is clean, else one error naming every
// violation.
func violations(r *Report) error {
	if r.Ok() {
		return nil
	}
	msg := fmt.Sprintf("sketchcheck: %d of %d invariants violated:", len(r.Violations), r.Checked)
	for _, v := range r.Violations {
		msg += "\n  " + v.String()
	}
	return errors.New(msg)
}

// A checker that cannot fail checks nothing. Each test here feeds a
// checker a deliberately broken input and requires a violation, then
// a healthy input and requires none — guarding the harness itself.

func testStream(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func TestCheckKLLDetectsCorruption(t *testing.T) {
	vals := testStream(3000, 1)
	s := sketch.NewKLL(128, 1)
	s.UpdateAll(vals)

	r := &Report{}
	CheckKLL(r, "healthy", s, vals)
	if !r.Ok() {
		t.Fatalf("healthy sketch flagged: %v", violations(r))
	}
	if r.Checked == 0 {
		t.Fatal("no invariants checked")
	}

	// Same sketch, wrong ground truth: ranks must be off.
	shifted := make([]float64, len(vals))
	for i, v := range vals {
		shifted[i] = v + 10
	}
	r = &Report{}
	CheckKLL(r, "corrupt", s, shifted)
	if r.Ok() {
		t.Fatal("sketch checked against disjoint ground truth passed")
	}
}

func TestCheckSpaceSavingDetectsViolations(t *testing.T) {
	s := sketch.NewSpaceSaving(8)
	truth := map[string]uint64{}
	for i := 0; i < 500; i++ {
		item := fmt.Sprintf("v%d", i%5)
		s.Update(item)
		truth[item]++
	}
	r := &Report{}
	CheckSpaceSaving(r, "healthy", s, truth)
	if !r.Ok() {
		t.Fatalf("healthy sketch flagged: %v", violations(r))
	}

	// Claim an untracked item occurred more often than the bound.
	truth["phantom"] = 1000
	r = &Report{}
	CheckSpaceSaving(r, "phantom", s, truth)
	if r.Ok() {
		t.Fatal("phantom heavy hitter not detected")
	}
	if !strings.Contains(violations(r).Error(), "untracked") {
		t.Fatalf("wrong violation: %v", violations(r))
	}
}

func TestCheckKMVExactRegime(t *testing.T) {
	s := sketch.NewKMV(64)
	for i := 0; i < 20; i++ {
		s.Update(fmt.Sprintf("d%d", i))
	}
	r := &Report{}
	CheckKMV(r, "exact", s, 20)
	if !r.Ok() {
		t.Fatalf("exact-regime sketch flagged: %v", violations(r))
	}
	r = &Report{}
	CheckKMV(r, "wrong", s, 21)
	if r.Ok() {
		t.Fatal("wrong distinct count in exact regime not detected")
	}
}

func TestCheckProfileQueryIdentityDetectsMutation(t *testing.T) {
	f := checkFrame(500, 7)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 2})
	c := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 2})
	r := &Report{}
	CheckProfileQueryIdentity(r, "twin", p, c)
	if !r.Ok() {
		t.Fatalf("twin flagged: %v", violations(r))
	}
	c.Numeric["x"].Quantiles.Update(1e12)
	r = &Report{}
	CheckProfileQueryIdentity(r, "mutated", p, c)
	if r.Ok() {
		t.Fatal("mutated twin not detected")
	}
}

// TestCheckProfileInvariantsReadsGatherCells: a row-sample gather is
// held to the frame cell for cell, not just by its length — one
// altered value or code, and one slot an Extend left holding the row it
// replaced, are each caught.
func TestCheckProfileInvariantsReadsGatherCells(t *testing.T) {
	f := checkFrame(3000, 5)
	base, err := PrefixFrame(f, 2500)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sketch.ProfileConfig{Seed: 2}
	flagged := func(label string, p *sketch.DatasetProfile) {
		t.Helper()
		r := &Report{}
		CheckProfileInvariants(r, p, f)
		if r.Ok() || !strings.Contains(violations(r).Error(), "profile/row-sample-cell") {
			t.Errorf("%s not caught by profile/row-sample-cell: %v", label, violations(r))
		}
	}
	p := sketch.BuildProfile(base, cfg)
	ext, err := p.Extend(f)
	if err != nil {
		t.Fatal(err)
	}
	r := &Report{}
	CheckProfileInvariants(r, ext, f)
	if !r.Ok() {
		t.Fatalf("healthy extension flagged: %v", violations(r))
	}

	built := sketch.BuildProfile(f, cfg)
	x, _ := built.Sample().Numeric("x")
	x.Values()[5] += 1
	flagged("an altered value", built)
	built = sketch.BuildProfile(f, cfg)
	cat, _ := built.Sample().Categorical("cat")
	codes := cat.Codes()
	codes[7] = (codes[7] + 1) % int32(cat.Cardinality())
	flagged("an altered code", built)

	stale, err := p.Extend(f)
	if err != nil {
		t.Fatal(err)
	}
	was, now := p.RowSample.Indexes(), stale.RowSample.Indexes()
	j := 0
	for j < len(was) && was[j] == now[j] {
		j++
	}
	if j == len(was) {
		t.Fatal("the extension took no row-sample slot")
	}
	staleY, _ := stale.Sample().Numeric("y")
	y, _ := p.Sample().Numeric("y")
	staleY.Values()[j] = y.Values()[j]
	flagged("a slot left stale", stale)
}

// TestCheckProfilesCompatibleGatesSpearman: the cross-path gate looks
// at the rank projections whenever both sides carry them — it used to
// compare Pearson estimates only, while the server always serves
// Spearman from the sketches — and skips them when a side (an Extend)
// has none.
func TestCheckProfilesCompatibleGatesSpearman(t *testing.T) {
	f := checkFrame(1500, 7)
	cfg := sketch.ProfileConfig{Seed: 2, Spearman: true}
	par := cfg
	par.Workers = 3
	one, other := sketch.BuildProfile(f, cfg), sketch.BuildProfile(f, par)
	r := &Report{}
	CheckProfilesCompatible(r, "workers", one, other, DefaultScoreTol, true)
	if !r.Ok() {
		t.Fatalf("build on workers flagged: %v", violations(r))
	}
	withRanks := r.Checked

	// y's ranks reversed: Spearman(x, y) flips sign, Pearson is untouched.
	ny := other.Numeric["y"]
	for i := range ny.RankProj.Dots {
		ny.RankProj.Dots[i] = -ny.RankProj.Dots[i]
	}
	ny.RankPlanes = sketch.HyperplaneFromProjection(ny.RankProj)
	r = &Report{}
	CheckProfilesCompatible(r, "reversed", one, other, DefaultScoreTol, true)
	if r.Ok() || !strings.Contains(violations(r).Error(), "compat/spearman") {
		t.Fatalf("reversed rank projection not caught by compat/spearman: %v", violations(r))
	}

	plain := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 2})
	r = &Report{}
	CheckProfilesCompatible(r, "no-ranks", one, plain, DefaultScoreTol, true)
	if !r.Ok() || r.Checked != withRanks-1 {
		t.Fatalf("without rank projections: %d checks (want %d), err %v", r.Checked, withRanks-1, violations(r))
	}
}

// checkFrame builds a small mixed frame for harness tests.
func checkFrame(n int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	xs, ys := make([]float64, n), make([]float64, n)
	cat := make([]string, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.7*xs[i] + 0.3*rng.NormFloat64()
		cat[i] = fmt.Sprintf("c%d", rng.Intn(6))
	}
	return frame.MustNew("check",
		frame.NewNumericColumn("x", xs),
		frame.NewNumericColumn("y", ys),
		frame.NewCategoricalColumn("cat", cat),
	)
}

// TestRunCleanOnNaturalData: the full selfcheck suite must pass on a
// well-behaved frame — the same property `foresight selfcheck`
// asserts on the bundled demo datasets in CI.
func TestRunCleanOnNaturalData(t *testing.T) {
	f := checkFrame(1200, 11)
	r := Run(f, Config{})
	if !r.Ok() {
		t.Fatalf("selfcheck on natural data failed:\n%v", violations(r))
	}
	if r.Checked < 100 {
		t.Fatalf("suspiciously few invariants checked: %d", r.Checked)
	}
}

// TestRunProfileFlagsWrongFrame: verifying a persisted profile
// against a frame it does not summarize must fail loudly.
func TestRunProfileFlagsWrongFrame(t *testing.T) {
	f := checkFrame(800, 3)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 2})
	if r := RunProfile(f, p); !r.Ok() {
		t.Fatalf("matching frame flagged: %v", violations(r))
	}
	other := checkFrame(800, 99)
	if r := RunProfile(other, p); r.Ok() {
		t.Fatal("profile of a different frame passed verification")
	}
}

func TestPrefixFrame(t *testing.T) {
	f := checkFrame(100, 5)
	p, err := PrefixFrame(f, 40)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows() != 40 {
		t.Fatalf("prefix rows = %d", p.Rows())
	}
	if _, err := PrefixFrame(f, 101); err == nil {
		t.Fatal("out-of-range prefix accepted")
	}
	empty, err := PrefixFrame(f, 0)
	if err != nil || empty.Rows() != 0 {
		t.Fatalf("empty prefix: %v rows=%d", err, empty.Rows())
	}
}

func TestReportFormatting(t *testing.T) {
	r := &Report{}
	r.check(true, "a/ok", "unused")
	if !r.Ok() || r.Checked != 1 {
		t.Fatalf("report state: %+v", r)
	}
	r.Fail("b/bad", "value %d out of range", 7)
	if r.Ok() {
		t.Fatal("Fail did not record a violation")
	}
	msg := violations(r).Error()
	if !strings.Contains(msg, "b/bad") || !strings.Contains(msg, "value 7 out of range") {
		t.Fatalf("error message: %s", msg)
	}
	var sb strings.Builder
	WriteReport(&sb, r)
	if !strings.Contains(sb.String(), "FAILED") {
		t.Fatalf("report output: %s", sb.String())
	}
}
