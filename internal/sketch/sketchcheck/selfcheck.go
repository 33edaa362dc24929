package sketchcheck

import (
	"bytes"
	"fmt"
	"io"

	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// DefaultScoreTol is the estimator-delta gate every alternate build
// path (extended, recovered from a WAL) is held to against the
// one-pass build: the selfcheck default, `foresight selfcheck
// -tol`'s default and the WAL gate's fallback.
const DefaultScoreTol = 0.07

// Config parameterizes a selfcheck run.
type Config struct {
	// Profile sizes the sketches; zero fields take the usual defaults.
	Profile sketch.ProfileConfig
	// ExtendFrac is the fraction of rows profiled before the Extend
	// delta-merge folds in the rest (default 0.85, matching the live
	// ingest pattern of small batches on a large base).
	ExtendFrac float64
	// ScoreTol is the estimator-delta gate between build paths
	// (default DefaultScoreTol).
	ScoreTol float64
}

func (c *Config) fill() {
	if c.ExtendFrac <= 0 || c.ExtendFrac >= 1 {
		c.ExtendFrac = 0.85
	}
	if c.ScoreTol <= 0 {
		c.ScoreTol = DefaultScoreTol
	}
}

// Run executes the full invariant suite against live profiles of f:
// it builds the sketch store along every path the codebase uses — one
// pass, Extend delta-merge — checks each against ground truth
// (CheckProfileInvariants), checks persist→load for query identity,
// checks that a build and an Extend save to the same bytes on any
// worker count as on one and that Extend leaves its receiver saving to
// the bytes it saved to before, and gates the extension against the
// one-pass build (CheckProfilesCompatible). The returned report holds
// every violation found.
func Run(f *frame.Frame, cfg Config) *Report {
	r := &Report{}
	cfg.fill()

	// One-pass build: the reference.
	seq := sketch.BuildProfile(f, cfg.Profile)
	CheckProfileInvariants(r, seq, f)

	// Persist → load must answer queries identically.
	var buf bytes.Buffer
	if err := seq.Save(&buf); err != nil {
		r.Fail("persist/save", "Save: %v", err)
	} else if loaded, err := sketch.LoadProfile(&buf); err != nil {
		r.Fail("persist/load", "LoadProfile: %v", err)
	} else {
		CheckProfileQueryIdentity(r, "persist", seq, loaded)
		CheckProfileInvariants(r, loaded, f)
	}

	saved := func(p *sketch.DatasetProfile) []byte {
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			r.Fail("persist/save", "Save: %v", err)
		}
		return buf.Bytes()
	}

	// The worker count is not in the bytes: a build on every core and
	// on three workers (column chunks that do not divide evenly) saves
	// to the reference's.
	want := saved(seq)
	for _, workers := range []int{-1, 3} {
		par := cfg.Profile
		par.Workers = workers
		r.check(bytes.Equal(saved(sketch.BuildProfile(f, par)), want), "build/workers",
			"a build on workers=%d saves to different bytes than the reference", workers)
	}

	// Extend: profile a prefix, fold the remaining rows in via the
	// delta-merge, compare against the full rebuild.
	cut := int(float64(f.Rows()) * cfg.ExtendFrac)
	if cut >= 1 && cut < f.Rows() {
		prefix, err := PrefixFrame(f, cut)
		if err != nil {
			r.Fail("extend/prefix", "building prefix frame: %v", err)
			return r
		}
		base := sketch.BuildProfile(prefix, cfg.Profile)
		before := saved(base)
		ext, err := base.Extend(f)
		if err != nil {
			r.Fail("extend/extend", "Extend: %v", err)
			return r
		}
		CheckProfileInvariants(r, ext, f)
		CheckProfilesCompatible(r, "extend", seq, ext, cfg.ScoreTol, false)
		// Extend shares with its receiver what it does not write; the
		// receiver must come out untouched.
		r.check(bytes.Equal(before, saved(base)), "extend/isolation",
			"the receiver of Extend saves to different bytes afterwards")
		// The worker count is not in the bytes.
		par := *base
		par.Config.Workers = -1
		if extPar, err := par.Extend(f); err != nil {
			r.Fail("extend/workers", "Extend on every core: %v", err)
		} else {
			r.check(bytes.Equal(saved(ext), saved(extPar)), "extend/workers",
				"Extend on every core saves to different bytes than on one")
		}
	}
	return r
}

// RunProfile checks an already-built profile (e.g. one reloaded from
// a persisted sketch store) against its frame, plus a persist
// round-trip of that profile.
func RunProfile(f *frame.Frame, p *sketch.DatasetProfile) *Report {
	r := &Report{}
	CheckProfileInvariants(r, p, f)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		r.Fail("persist/save", "Save: %v", err)
		return r
	}
	loaded, err := sketch.LoadProfile(&buf)
	if err != nil {
		r.Fail("persist/load", "LoadProfile: %v", err)
		return r
	}
	CheckProfileQueryIdentity(r, "persist", p, loaded)
	return r
}

// PrefixFrame returns a frame holding the first rows rows of f with
// the same columns and (for categorical columns) the same dictionary
// coding, so f extends it in place — the shape Extend requires.
func PrefixFrame(f *frame.Frame, rows int) (*frame.Frame, error) {
	if rows < 0 || rows > f.Rows() {
		return nil, fmt.Errorf("sketchcheck: prefix of %d rows from a %d-row frame", rows, f.Rows())
	}
	cols := make([]frame.Column, 0, len(f.NumericColumns())+len(f.CategoricalColumns()))
	for _, name := range f.Names() {
		col, _ := f.Lookup(name)
		switch c := col.(type) {
		case *frame.NumericColumn:
			cols = append(cols, frame.NewNumericColumn(name, append([]float64(nil), c.Values()[:rows]...)))
		case *frame.CategoricalColumn:
			cc, err := frame.NewCategoricalFromCodes(name,
				append([]int32(nil), c.Codes()[:rows]...),
				append([]string(nil), c.Dict()...))
			if err != nil {
				return nil, err
			}
			cols = append(cols, cc)
		default:
			return nil, fmt.Errorf("sketchcheck: column %q has unsupported kind", name)
		}
	}
	return frame.New(f.Name(), cols...)
}

// WriteReport renders a human-readable summary of the report to w.
func WriteReport(w io.Writer, r *Report) {
	if r.Ok() {
		fmt.Fprintf(w, "selfcheck OK: %d invariants checked, 0 violations\n", r.Checked)
		return
	}
	fmt.Fprintf(w, "selfcheck FAILED: %d of %d invariants violated\n", len(r.Violations), r.Checked)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  %s\n", v.String())
	}
}
