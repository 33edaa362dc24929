package core

import (
	"math"
	"testing"

	"foresight/internal/sketch"
)

// TestClassDescriptorsComplete sweeps the descriptor methods of every
// class (built-in and optional): names unique, descriptions non-empty,
// declared metrics resolvable, visualization kinds set.
func TestClassDescriptorsComplete(t *testing.T) {
	classes := append(BuiltinClasses(),
		NewNonlinearDependenceClass(0),
		NewNormalityClass(),
	)
	seen := map[string]bool{}
	for _, c := range classes {
		if c.Name() == "" || seen[c.Name()] {
			t.Errorf("class name empty or duplicated: %q", c.Name())
		}
		seen[c.Name()] = true
		if c.Description() == "" {
			t.Errorf("%s: empty description", c.Name())
		}
		if c.Arity() < 1 || c.Arity() > 3 {
			t.Errorf("%s: arity %d", c.Name(), c.Arity())
		}
		if len(c.Metrics()) == 0 {
			t.Errorf("%s: no metrics", c.Name())
		}
		if c.VisKind() == "" {
			t.Errorf("%s: no visualization kind", c.Name())
		}
		for _, m := range c.Metrics() {
			if resolved, err := validateMetric(c, m); err != nil || resolved != m {
				t.Errorf("%s: metric %q does not validate: %v", c.Name(), m, err)
			}
		}
	}
}

// TestAllMetricVariantsBothPaths scores every (class, metric) pair on
// the planted frame through both the exact and the approximate path,
// checking the results are well-formed and mutually consistent.
func TestAllMetricVariantsBothPaths(t *testing.T) {
	f := plantedFrame(3000, 55)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 2, K: 256, Spearman: true})
	attrsFor := func(c Class) []string {
		switch c.Arity() {
		case 1:
			if c.Name() == "heavyhitters" || c.Name() == "uniformity" {
				return []string{"zipfcat"}
			}
			return []string{"xa"}
		case 2:
			switch c.Name() {
			case "dependence":
				return []string{"dep_num", "unifcat"}
			case "catassoc":
				return []string{"cat_a", "cat_b"}
			default:
				return []string{"xa", "xb"}
			}
		default:
			return []string{"seg_x", "seg_y", "seg"}
		}
	}
	classes := append(BuiltinClasses(),
		NewNonlinearDependenceClass(0),
		NewNormalityClass(),
	)
	for _, c := range classes {
		attrs := attrsFor(c)
		for _, metric := range c.Metrics() {
			exact, err := c.Score(f, attrs, metric)
			if err != nil {
				t.Errorf("%s/%s exact: %v", c.Name(), metric, err)
				continue
			}
			if exact.Metric != metric || exact.Class != c.Name() {
				t.Errorf("%s/%s: identity fields wrong: %+v", c.Name(), metric, exact)
			}
			if exact.Vis == "" {
				t.Errorf("%s/%s: missing vis", c.Name(), metric)
			}
			approx, err := c.ScoreApprox(p, attrs, metric)
			if err != nil {
				t.Errorf("%s/%s approx: %v", c.Name(), metric, err)
				continue
			}
			if !approx.Approx {
				t.Errorf("%s/%s: approx flag unset", c.Name(), metric)
			}
			// Scores of the two paths must be the same sign of signal:
			// both defined or both degenerate; when both defined and the
			// metric is bounded (≤ ~1), they should be loosely close.
			if math.IsNaN(exact.Score) != math.IsNaN(approx.Score) {
				t.Errorf("%s/%s: definedness differs (exact %v, approx %v)",
					c.Name(), metric, exact.Score, approx.Score)
				continue
			}
			if !math.IsNaN(exact.Score) && exact.Score <= 1.5 && approx.Score <= 1.5 {
				if math.Abs(exact.Score-approx.Score) > 0.5 {
					t.Errorf("%s/%s: exact %v vs approx %v", c.Name(), metric, exact.Score, approx.Score)
				}
			}
		}
	}
}

// TestOutlierDetectorVariants verifies the detector-as-metric wiring.
func TestOutlierDetectorVariants(t *testing.T) {
	f := plantedFrame(2000, 56)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 3, K: 32, RowSampleSize: 4096})
	c := NewOutliersClass(nil)
	for _, metric := range []string{"meandist", "iqr", "zscore", "mad"} {
		exact, err := c.Score(f, []string{"outl"}, metric)
		if err != nil {
			t.Fatalf("%s exact: %v", metric, err)
		}
		if exact.Score <= 0 {
			t.Errorf("%s: planted outliers not detected (score %v)", metric, exact.Score)
		}
		approx, err := c.ScoreApprox(p, []string{"outl"}, metric)
		if err != nil {
			t.Fatalf("%s approx: %v", metric, err)
		}
		if approx.Score <= 0 {
			t.Errorf("%s approx: planted outliers not detected", metric)
		}
	}
}

// TestDispersionIQRMetric checks the robust dispersion variant against
// the moment-based one on heavy-tailed data.
func TestDispersionIQRMetric(t *testing.T) {
	f := plantedFrame(2000, 57)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 4, K: 32})
	c := NewDispersionClass()
	exact, err := c.Score(f, []string{"skewed"}, "iqr")
	if err != nil {
		t.Fatal(err)
	}
	approx, err := c.ScoreApprox(p, []string{"skewed"}, "iqr")
	if err != nil {
		t.Fatal(err)
	}
	if exact.Score <= 0 || approx.Score <= 0 {
		t.Fatalf("iqr scores: exact %v approx %v", exact.Score, approx.Score)
	}
	if math.Abs(exact.Score-approx.Score)/exact.Score > 0.2 {
		t.Errorf("KLL IQR %v far from exact %v", approx.Score, exact.Score)
	}
	// IQR of the heavy-tailed column is much smaller than its stddev.
	sd, _ := c.Score(f, []string{"skewed"}, "stddev")
	if exact.Score >= 3*sd.Score {
		t.Errorf("IQR %v should not dwarf stddev %v", exact.Score, sd.Score)
	}
}

// TestSegmentationApproxStride exercises the approx path's code-stride
// realignment when the row sample is larger than the silhouette cap.
func TestSegmentationApproxStride(t *testing.T) {
	f := plantedFrame(4000, 58)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 5, K: 32, RowSampleSize: 3000})
	c := NewSegmentationClass(0, 256) // cap below the sample size
	in, err := c.ScoreApprox(p, []string{"seg_x", "seg_y", "seg"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if in.Score < 0.5 {
		t.Errorf("strided segmentation score = %v, want strong", in.Score)
	}
}

func scoreOf(ins []Insight, attr string) float64 {
	for _, in := range ins {
		if in.Attrs[0] == attr {
			return in.Score
		}
	}
	return math.NaN()
}

// TestMultimodalityKdemodesRanking: the kdemodes metric must rank the
// planted bimodal column above unimodal noise.
func TestMultimodalityKdemodesRanking(t *testing.T) {
	f := plantedFrame(3000, 59)
	c := NewMultimodalityClass()
	ins := ScoreAll(c, f, "kdemodes")
	if len(ins) == 0 {
		t.Fatal("no kdemodes insights")
	}
	// dep_num (8 planted levels) legitimately has the most modes; the
	// planted bimodal column must report ≥2 and beat unimodal noise.
	if got := scoreOf(ins, "bimodal"); got < 2 {
		t.Errorf("bimodal kdemodes = %v, want ≥2", got)
	}
	if scoreOf(ins, "bimodal") <= scoreOf(ins, "lo_var") {
		t.Error("bimodal should out-mode unimodal noise")
	}
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 6, K: 32, RowSampleSize: 2048})
	approx, err := c.ScoreApprox(p, []string{"bimodal"}, "kdemodes")
	if err != nil {
		t.Fatal(err)
	}
	if approx.Score < 2 {
		t.Errorf("approx kdemodes = %v, want ≥2", approx.Score)
	}
}
