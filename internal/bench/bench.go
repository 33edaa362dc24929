// Package bench implements the experiment harness that regenerates
// every figure, table, and quantified claim of the paper's evaluation
// (see DESIGN.md §5 for the experiment index):
//
//	E1  Figure 1   — ranked insight carousels on the OECD-like data
//	E2  Figure 2   — pairwise-correlation overview heat map
//	E3  §3 claim   — approximate vs exact scores (">90% accuracy")
//	E7  §4.1       — scripted usage-scenario discoveries
//	E8  §4.2       — Parkinson / IMDB demo-dataset insights
//
// plus ablations over the sketch parameters called out in DESIGN.md.
// E4–E6 (preprocessing speedup, query latency, all-pairs complexity)
// are timings, taken by the root package's BenchmarkE4*–E6* pairs.
// Each experiment prints a human-readable table to its writer and,
// when outDir is non-empty, writes machine-readable TSV series and
// SVG figures there.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"
	"unicode/utf8"
)

// Experiment is one named entry of foresight-bench's -exp list.
type Experiment struct {
	Name string
	// Run writes the experiment's tables to w and its artifacts into
	// outDir (none when empty).
	Run func(w io.Writer, outDir string, seed int64) error
}

// Experiments lists every experiment, in run order; full selects E3's
// paper-scale sizes.
func Experiments(full bool) []Experiment {
	rows, dims := 20000, []int{25, 50}
	if full {
		rows, dims = 100000, []int{25, 50, 100, 200}
	}
	return []Experiment{
		{"e1", RunE1Carousels},
		{"e2", RunE2Overview},
		{"e3", func(w io.Writer, outDir string, seed int64) error { return RunE3Accuracy(w, outDir, rows, dims, seed) }},
		{"e7", func(w io.Writer, outDir string, seed int64) error {
			_, err := RunE7Scenario(w, outDir, seed)
			return err
		}},
		{"e8", RunE8DemoDatasets},
		{"ablations", RunAllAblations},
	}
}

// Table accumulates aligned rows for terminal output and TSV export.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	rule := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		rule[i] = strings.Repeat("-", utf8.RuneCountInString(c))
	}
	for _, row := range append([][]string{t.Columns, rule}, t.Rows...) {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

// WriteTSV writes the table as a TSV file into dir (no-op when dir is
// empty), named from the slug.
func (t *Table) WriteTSV(dir, slug string) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, "\t") + "\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, "\t") + "\n")
	}
	return writeFile(dir, slug+".tsv", b.String())
}

// writeFile writes content into dir/name (no-op when dir is empty).
func writeFile(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}
