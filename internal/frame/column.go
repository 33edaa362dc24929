// Package frame implements the columnar dataframe substrate used by
// Foresight. A Frame is an in-memory, immutable-by-convention matrix
// A(n×d) in which each column is either numeric (float64, NaN encodes a
// missing value) or categorical (dictionary-encoded strings, code -1
// encodes a missing value). The insight engine (package core) consumes
// Frames; the sketching layer (package sketch) consumes raw column
// slices obtained from a Frame in a single pass.
package frame

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"foresight/internal/stats"
)

// Kind identifies the logical type of a column.
type Kind int

const (
	// Numeric columns hold float64 values; NaN marks a missing cell.
	Numeric Kind = iota
	// Categorical columns hold dictionary-encoded string values; a
	// negative code marks a missing cell.
	Categorical
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column is the read interface shared by numeric and categorical
// columns. Implementations are *NumericColumn and *CategoricalColumn.
type Column interface {
	// Name returns the attribute name of the column.
	Name() string
	// Kind reports whether the column is Numeric or Categorical.
	Kind() Kind
	// Len returns the number of cells (including missing cells).
	Len() int
	// Missing reports the number of missing cells.
	Missing() int
	// IsMissing reports whether cell i is missing.
	IsMissing(i int) bool
	// StringAt renders cell i for display ("" for missing cells).
	StringAt(i int) string
}

// NumericColumn is a column of float64 values. Missing values are
// stored as NaN.
type NumericColumn struct {
	name    string
	cells   cells[float64]
	missing int

	// The ordered view (see Ordered) is built at most once, on first
	// request. carried is what AppendRows handed down of the nearest
	// predecessor that had a view: written before the column is shared
	// and never after, and shared by every successor until one builds a
	// view of its own.
	viewOnce sync.Once
	view     atomic.Pointer[stats.Ordered]
	carried  *carry
}

// carry is what an append chain hands down of a view: its base run,
// the sorted order of the column's first rows, and the fold — moments
// and sum — of a prefix of them.
type carry struct {
	base *stats.Run
	fold stats.Fold
}

// NewNumericColumn builds a numeric column over values. The slice is
// retained, not copied; callers must not mutate it afterwards. Its
// spare capacity, if any, is left alone.
func NewNumericColumn(name string, values []float64) *NumericColumn {
	missing := 0
	for _, v := range values {
		if math.IsNaN(v) {
			missing++
		}
	}
	return &NumericColumn{name: name, cells: newCells(values), missing: missing}
}

// Name returns the attribute name.
func (c *NumericColumn) Name() string { return c.name }

// Kind returns Numeric.
func (c *NumericColumn) Kind() Kind { return Numeric }

// Len returns the number of cells.
func (c *NumericColumn) Len() int { return c.cells.n }

// Missing returns the number of NaN cells.
func (c *NumericColumn) Missing() int { return c.missing }

// IsMissing reports whether cell i is NaN.
func (c *NumericColumn) IsMissing(i int) bool { return math.IsNaN(c.At(i)) }

// StringAt renders cell i, or "" when missing.
func (c *NumericColumn) StringAt(i int) string {
	if c.IsMissing(i) {
		return ""
	}
	return fmt.Sprintf("%g", c.At(i))
}

// Values returns every cell contiguous (NaN = missing). Callers must
// treat it as read-only; its capacity is its length, so an append to
// it copies rather than writing into a successor column's cells. On a
// column holding appended rows in tail chunks the first call folds
// them into one array, which every later call returns.
func (c *NumericColumn) Values() []float64 { return c.cells.all() }

// At returns the value of cell i (possibly NaN). It never folds.
func (c *NumericColumn) At(i int) float64 { return c.cells.at(i) }

// Ordered returns the column's ordered view: its non-missing rows by
// ascending value, moments, mean and σ. The first call sorts the
// column, or, given the base run AppendRows carried forward, sorts only
// the rows after it (merging the two once those pass a share of the
// base; see stats.ExtendOrdered) and folds only the rows the carried
// moments have not seen; every later call, from any goroutine, returns
// the same retained view. A column never changes, so the view can
// never be stale: a new dataset generation is a new column with a view
// of its own, and a column nobody scores exactly never pays for one.
func (c *NumericColumn) Ordered() *stats.Ordered {
	c.viewOnce.Do(func() {
		values := c.Values()
		if k := c.carried; k != nil {
			c.view.Store(stats.ExtendOrdered(values, k.base, k.fold))
		} else {
			c.view.Store(stats.NewOrdered(values))
		}
	})
	return c.view.Load()
}

// extended makes next the column that continues c with the cells
// extendInto gave it, `missing` of them NaN. The base run and moments
// known of c — its view's, or what c itself was handed — are handed
// down as they are: the successor's first Ordered call sorts and folds
// the rows after them, so an append sorts nothing.
func (c *NumericColumn) extended(next *NumericColumn, missing int) {
	next.name, next.missing, next.carried = c.name, c.missing+missing, c.carried
	if v := c.view.Load(); v != nil {
		next.carried = &carry{base: v.Base(), fold: v.Fold()}
	}
}

// CategoricalColumn is a dictionary-encoded string column: each cell
// is an index into dict, or -1 for a missing cell.
type CategoricalColumn struct {
	name  string
	cells cells[int32]
	// dict is the distinct texts in order of first appearance; its
	// spare capacity, and index — text to code, built by the first
	// append and shared down the chain — go with the cells' tail claim.
	dict    []string
	index   map[string]int32
	missing int
}

// dictionary is a categorical column under construction: the codes of
// the cells so far and the distinct texts in order of first appearance.
type dictionary struct {
	codes   []int32
	dict    []string
	index   map[string]int32
	missing int
}

func (d *dictionary) add(cell string, missing bool) {
	if missing {
		d.codes = append(d.codes, -1)
		d.missing++
		return
	}
	code, ok := d.index[cell]
	if !ok {
		// cell may be a slice of a longer text — its CSV record, a
		// request body; keep only its own bytes.
		cell = strings.Clone(cell)
		code = int32(len(d.dict))
		d.dict = append(d.dict, cell)
		d.index[cell] = code
	}
	d.codes = append(d.codes, code)
}

// column is the finished column.
func (d *dictionary) column(name string) *CategoricalColumn {
	return &CategoricalColumn{name: name, cells: newCells(d.codes), dict: d.dict, missing: d.missing}
}

// NewCategoricalColumn builds a categorical column from raw string
// values. Empty strings are treated as missing. The dictionary is
// assigned in first-appearance order.
func NewCategoricalColumn(name string, values []string) *CategoricalColumn {
	d := dictionary{codes: make([]int32, 0, len(values)), index: make(map[string]int32)}
	for _, v := range values {
		d.add(v, v == "")
	}
	return d.column(name)
}

// NewCategoricalFromCodes builds a categorical column directly from
// dictionary codes. Codes must be -1 (missing) or valid indexes into
// dict; out-of-range codes cause an error.
func NewCategoricalFromCodes(name string, codes []int32, dict []string) (*CategoricalColumn, error) {
	missing := 0
	for i, code := range codes {
		switch {
		case code == -1:
			missing++
		case code < 0 || int(code) >= len(dict):
			return nil, fmt.Errorf("frame: column %q: code %d at row %d out of range [0,%d)", name, code, i, len(dict))
		}
	}
	return &CategoricalColumn{name: name, cells: newCells(codes), dict: dict[:len(dict):len(dict)], missing: missing}, nil
}

// Name returns the attribute name.
func (c *CategoricalColumn) Name() string { return c.name }

// Kind returns Categorical.
func (c *CategoricalColumn) Kind() Kind { return Categorical }

// Len returns the number of cells.
func (c *CategoricalColumn) Len() int { return c.cells.n }

// Missing returns the number of missing cells.
func (c *CategoricalColumn) Missing() int { return c.missing }

// IsMissing reports whether cell i is missing.
func (c *CategoricalColumn) IsMissing(i int) bool { return c.CodeAt(i) < 0 }

// StringAt renders cell i, or "" when missing.
func (c *CategoricalColumn) StringAt(i int) string {
	if code := c.CodeAt(i); code >= 0 {
		return c.dict[code]
	}
	return ""
}

// Codes returns every cell's code contiguous (-1 = missing). Read-only;
// like Values, its capacity is its length, and its first call on a
// column holding appended rows in tail chunks folds them.
func (c *CategoricalColumn) Codes() []int32 { return c.cells.all() }

// CodeAt returns the code of cell i (-1 = missing). It never folds.
func (c *CategoricalColumn) CodeAt(i int) int32 { return c.cells.at(i) }

// Dict returns the dictionary of distinct values. Read-only; its
// capacity is its length.
func (c *CategoricalColumn) Dict() []string { return c.dict[:len(c.dict):len(c.dict)] }

// Cardinality returns the number of distinct non-missing values.
func (c *CategoricalColumn) Cardinality() int { return len(c.dict) }

// Counts returns the frequency of each dictionary entry, indexed by
// code. Missing cells are not counted.
func (c *CategoricalColumn) Counts() []int {
	counts := make([]int, len(c.dict))
	for _, code := range c.Codes() {
		if code >= 0 {
			counts[code]++
		}
	}
	return counts
}
