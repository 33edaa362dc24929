package viz

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

var update = flag.Bool("update", false, "rewrite testdata/renders from this build's renderings")

// TestRendersPinned pins what every renderer draws for every class the
// repository ships (the twelve built-ins and the two optional ones). For
// each demo dataset and class it scores up to 64 candidates (evenly
// strided) at the default metric and renders each insight with
// RenderSVG, RenderSVGFromProfile and RenderASCII, keeping one SHA-256
// per (class, renderer) over every output and its error text. The lines
// must equal testdata/renders/<dataset>.txt; -update rewrites the files.
func TestRendersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests are amd64 facts: on other architectures (arm64) the compiler may fuse multiply-add, which moves scores and coordinates by ulps")
	}
	for _, ds := range []struct {
		name string
		f    *frame.Frame
	}{
		{"oecd", datagen.OECD(0, 42)},
		{"imdb", datagen.IMDB(0, 42)},
	} {
		t.Run(ds.name, func(t *testing.T) {
			p := sketch.BuildProfile(ds.f, sketch.ProfileConfig{Seed: 42})
			got := renderDigests(ds.f, p)
			path := filepath.Join("testdata", "renders", ds.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to write it)", err)
			}
			wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
			if len(got) != len(wantLines) {
				t.Fatalf("%d digests, %s pins %d", len(got), path, len(wantLines))
			}
			for i := range got {
				if got[i] != wantLines[i] {
					t.Errorf("renderings differ:\n got %s\nwant %s", got[i], wantLines[i])
				}
			}
		})
	}
}

// renderDigests returns one line per (class, renderer): its names, the
// insights rendered and their digest.
func renderDigests(f *frame.Frame, p *sketch.DatasetProfile) []string {
	renderers := []struct {
		name   string
		render func(core.Insight) (string, error)
	}{
		{"svg", func(in core.Insight) (string, error) { return RenderSVG(f, in) }},
		{"svg-profile", func(in core.Insight) (string, error) { return RenderSVGFromProfile(p, in) }},
		{"ascii", func(in core.Insight) (string, error) { return RenderASCII(f, in) }},
	}
	var lines []string
	classes := append(core.BuiltinClasses(), core.NewNonlinearDependenceClass(0), core.NewNormalityClass())
	for _, c := range classes {
		cands := c.Candidates(f)
		stride := 1
		if len(cands) > 64 {
			stride = (len(cands) + 63) / 64
		}
		var ins []core.Insight
		for i := 0; i < len(cands); i += stride {
			in, err := c.Score(f, cands[i], "")
			if err != nil {
				// The renderers draw from the attrs and the kind; an
				// unscoreable candidate is still drawable.
				in = core.Insight{Class: c.Name(), Attrs: cands[i], Vis: c.VisKind()}
			}
			ins = append(ins, in)
		}
		for _, r := range renderers {
			h := sha256.New()
			for _, in := range ins {
				out, err := r.render(in)
				fmt.Fprintf(h, "%s\nerror %v\n", out, err)
			}
			lines = append(lines, fmt.Sprintf("%s %s %d %x", c.Name(), r.name, len(ins), h.Sum(nil)))
		}
	}
	return lines
}
