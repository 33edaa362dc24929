package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

var update = flag.Bool("update", false, "rewrite testdata/scores from this build's scores")

// pinnedClasses is every class the repository ships: the twelve
// built-ins and the two optional ones.
func pinnedClasses() []Class {
	return append(BuiltinClasses(), NewNonlinearDependenceClass(0), NewNormalityClass())
}

// TestScoresPinned pins what every (class, metric) scores on both
// paths, where the reply corpus (internal/server) sees only each
// registered class's default metric. For each demo dataset, class,
// metric and path it scores up to 64 candidates (evenly strided) and
// keeps one SHA-256 over each insight in Go syntax (%+v of the plain
// struct: shortest round-trip floats, detail keys sorted, NaN included,
// which JSON cannot encode) or its error text. The lines must equal
// testdata/scores/<dataset>.txt; -update rewrites the files. oecd's
// profile carries rank projections and imdb's does not, so monotonic's
// sketch path is pinned through both of its Spearman backends.
func TestScoresPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests are amd64 facts: on other architectures (arm64) the compiler may fuse multiply-add, which moves scores by ulps")
	}
	for _, ds := range []struct {
		name     string
		f        *frame.Frame
		spearman bool
	}{
		{"oecd", datagen.OECD(0, 42), true},
		{"imdb", datagen.IMDB(0, 42), false},
	} {
		t.Run(ds.name, func(t *testing.T) {
			p := sketch.BuildProfile(ds.f, sketch.ProfileConfig{Seed: 42, Spearman: ds.spearman})
			got := scoreDigests(ds.f, p)
			path := filepath.Join("testdata", "scores", ds.name+".txt")
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
					t.Errorf("scores differ:\n got %s\nwant %s", got[i], wantLines[i])
				}
			}
		})
	}
}

// plainInsight is Insight without its String method, so %+v prints
// every field.
type plainInsight Insight

// scoreDigests returns one line per (class, metric, path): its names,
// the candidates scored and their digest.
func scoreDigests(f *frame.Frame, p *sketch.DatasetProfile) []string {
	var lines []string
	for _, c := range pinnedClasses() {
		cands := c.Candidates(f)
		stride := sampleStride(len(cands), 64)
		for _, metric := range c.Metrics() {
			for _, path := range []string{"exact", "approx"} {
				h := sha256.New()
				n := 0
				for i := 0; i < len(cands); i += stride {
					var in Insight
					var err error
					if path == "exact" {
						in, err = c.Score(f, cands[i], metric)
					} else {
						in, err = c.ScoreApprox(p, cands[i], metric)
					}
					if err != nil {
						fmt.Fprintf(h, "error %s\n", err)
					} else {
						fmt.Fprintf(h, "%+v\n", plainInsight(in))
					}
					n++
				}
				lines = append(lines, fmt.Sprintf("%s %s %s %d %x", c.Name(), metric, path, n, h.Sum(nil)))
			}
		}
	}
	return lines
}
