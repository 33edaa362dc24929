package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTablePrintAndTSV(t *testing.T) {
	tbl := NewTable("demo", "a", "b")
	tbl.AddRow("x", 1.23456)
	tbl.AddRow("longer-cell", 2)
	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer-cell") {
		t.Errorf("table output wrong: %q", out)
	}
	dir := t.TempDir()
	if err := tbl.WriteTSV(dir, "demo"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "demo.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "a\tb\n") {
		t.Errorf("tsv header wrong: %q", data)
	}
	// Empty dir is a no-op.
	if err := tbl.WriteTSV("", "x"); err != nil {
		t.Errorf("empty dir should no-op: %v", err)
	}
}

func TestRunE1AndE2(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := RunE1Carousels(&buf, dir, 42); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E1 / Figure 1") {
		t.Error("E1 header missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "e1_carousels.tsv")); err != nil {
		t.Error("E1 TSV missing")
	}
	svgs, _ := filepath.Glob(filepath.Join(dir, "e1_top_*.svg"))
	if len(svgs) < 6 {
		t.Errorf("E1 wrote only %d SVGs", len(svgs))
	}
	buf.Reset()
	if err := RunE2Overview(&buf, dir, 42); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pairwise correlation overview") {
		t.Error("E2 header missing")
	}
	for _, name := range []string{"e2_matrix.tsv", "e2_correlogram.svg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("E2 artifact %s missing", name)
		}
	}
}

func TestRunE7ScenarioPasses(t *testing.T) {
	var buf bytes.Buffer
	checks, err := RunE7Scenario(&buf, t.TempDir(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 7 {
		t.Fatalf("only %d scenario checks", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("scenario check failed: %s (%s)", c.Name, c.Detail)
		}
	}
}

func TestRunE8(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE8DemoDatasets(&buf, t.TempDir(), 7); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "parkinson") || !strings.Contains(out, "imdb") {
		t.Error("E8 datasets missing from output")
	}
	if !strings.Contains(out, "Gross") {
		t.Error("E8 profitability question missing")
	}
}

func TestRunE3AccuracySmall(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := RunE3Accuracy(&buf, dir, 4000, []int{12}, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E3: approximate vs exact scores") {
		t.Error("E3 header missing")
	}
	data, err := os.ReadFile(filepath.Join(dir, "e3_accuracy.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	// One row per class (12 built-ins, nonlinear, normality) on each of
	// scalable d=12, oecd, parkinson and imdb.
	rows := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		cells := strings.Split(line, "\t")
		if len(cells) != 7 {
			t.Fatalf("E3 row %q has %d cells, want 7", line, len(cells))
		}
		rows[cells[0]]++
		if cells[3] == "0" && cells[5] != "no candidates" {
			t.Errorf("E3 row %q: a class without candidates must say so", line)
		}
	}
	for _, ds := range []string{"scalable d=12", "oecd", "parkinson", "imdb"} {
		if rows[ds] != 14 {
			t.Errorf("E3 has %d rows for %s, want 14", rows[ds], ds)
		}
	}
}

// TestResultsRegenerate writes every artifact foresight-bench writes
// without -full, at its default seed, and compares each byte for byte
// with the committed results/, except the cells a Table writes from a
// time.Duration. Every committed file must be among those regenerated.
// The experiments run side by side: each writes its own files, and
// none depends on the order.
func TestResultsRegenerate(t *testing.T) {
	dir := t.TempDir()
	exps := Experiments(false)
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = e.Run(io.Discard, dir, 42)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", exps[i].Name, err)
		}
	}
	const committed = "../../results"
	names := map[string]bool{}
	for _, d := range []string{dir, committed} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range entries {
			names[en.Name()] = true
		}
	}
	for name := range names {
		got, gerr := os.ReadFile(filepath.Join(dir, name))
		want, werr := os.ReadFile(filepath.Join(committed, name))
		switch {
		case gerr != nil:
			t.Errorf("results/%s is committed but no experiment writes it", name)
		case werr != nil:
			t.Errorf("%s is written but not committed under results/", name)
		case strings.HasSuffix(name, ".tsv"):
			if diff := tsvDiff(string(got), string(want)); diff != "" {
				t.Errorf("results/%s does not regenerate: %s", name, diff)
			}
		case !bytes.Equal(got, want):
			t.Errorf("results/%s does not regenerate byte for byte", name)
		}
	}
}

// tsvDiff describes the first cell where two TSV files differ, skipping
// cells both hold as a time.Duration (the timings, which no run
// repeats); "" when they agree.
func tsvDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		return fmt.Sprintf("%d lines, committed %d", len(gl), len(wl))
	}
	for i := range gl {
		gc, wc := strings.Split(gl[i], "\t"), strings.Split(wl[i], "\t")
		if len(gc) != len(wc) {
			return fmt.Sprintf("line %d: %q, committed %q", i+1, gl[i], wl[i])
		}
		for j := range gc {
			if gc[j] != wc[j] && !(isDuration(gc[j]) && isDuration(wc[j])) {
				return fmt.Sprintf("line %d column %d: %q, committed %q", i+1, j+1, gc[j], wc[j])
			}
		}
	}
	return ""
}

// isDuration reports whether a cell is time.Duration.String's output:
// a number with a unit (a bare "0" is a number).
func isDuration(cell string) bool {
	_, err := time.ParseDuration(cell)
	return err == nil && cell != "0"
}

func TestAblationsSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAblationK(&buf, "", 2000, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := RunAblationKLL(&buf, "", 20000, 1); err != nil {
		t.Fatal(err)
	}
	if err := RunAblationHeavy(&buf, "", 20000, 1); err != nil {
		t.Fatal(err)
	}
	if err := RunAblationEntropy(&buf, "", 20000, 1); err != nil {
		t.Fatal(err)
	}
	if err := RunAblationReservoir(&buf, "", 2000, 1); err != nil {
		t.Fatal(err)
	}
	if err := RunAblationMultimodality(&buf, "", 4000, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"hyperplane width", "KLL compactor", "SpaceSaving capacity", "entropy estimator", "row-sample size", "multimodality metrics"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}
