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
// stored as NaN, so the backing slice always has length Len().
type NumericColumn struct {
	name string
	// values has length Len(); the capacity past it is the tail (see
	// growTail), so every accessor hands out values[:n:n].
	values  []float64
	tail    atomic.Bool
	missing int

	// The ordered view (see Ordered) is built at most once, on first
	// request. carried is the row order handed down by AppendRows when
	// the predecessor column had one, and fold the moments and sum of a
	// prefix of the rows, handed down with it; both are written before
	// the column is shared and never after.
	viewOnce sync.Once
	view     atomic.Pointer[stats.Ordered]
	carried  []int32
	fold     stats.Fold
}

// growTail returns a slice of length len(s)+extra whose first len(s)
// cells are s's and whose remaining cells the caller may write: how a
// successor column extends its predecessor in amortised O(extra). A
// column's backing array is append-only — cells below Len() never
// change, and readers never see past Len() — so the successor can
// share it and write only the spare capacity above. That tail goes to
// at most one successor, the first to claim it; a second append from
// the same column, or one the spare capacity cannot hold, copies into
// a new array a quarter larger than it needs.
func growTail[T any](s []T, claimed *atomic.Bool, extra int) []T {
	n := len(s)
	if cap(s)-n >= extra && claimed.CompareAndSwap(false, true) {
		return s[:n+extra]
	}
	out := make([]T, n+extra, max(n+extra, n+n/4))
	copy(out, s)
	return out
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
	return &NumericColumn{name: name, values: values[:len(values):len(values)], missing: missing}
}

// Name returns the attribute name.
func (c *NumericColumn) Name() string { return c.name }

// Kind returns Numeric.
func (c *NumericColumn) Kind() Kind { return Numeric }

// Len returns the number of cells.
func (c *NumericColumn) Len() int { return len(c.values) }

// Missing returns the number of NaN cells.
func (c *NumericColumn) Missing() int { return c.missing }

// IsMissing reports whether cell i is NaN.
func (c *NumericColumn) IsMissing(i int) bool { return math.IsNaN(c.values[i]) }

// StringAt renders cell i, or "" when missing.
func (c *NumericColumn) StringAt(i int) string {
	if c.IsMissing(i) {
		return ""
	}
	return fmt.Sprintf("%g", c.values[i])
}

// Values returns the backing slice (NaN = missing). Callers must treat
// it as read-only; its capacity is its length, so an append to it
// copies rather than writing into a successor column's cells.
func (c *NumericColumn) Values() []float64 { return c.values[:len(c.values):len(c.values)] }

// At returns the value of cell i (possibly NaN).
func (c *NumericColumn) At(i int) float64 { return c.values[i] }

// Ordered returns the column's ordered view: its non-missing rows by
// ascending value, the sorted values, moments, mean and σ. The first
// call sorts the column (or finishes the order AppendRows carried
// forward, and folds only the rows the carried moments have not seen);
// every later call, from any goroutine, returns the same retained view.
// A column never changes, so the view can never be stale: a new dataset
// generation is a new column with a view of its own, and a column
// nobody scores exactly never pays for one.
func (c *NumericColumn) Ordered() *stats.Ordered {
	c.viewOnce.Do(func() {
		if c.carried != nil {
			c.view.Store(stats.OrderedFrom(c.Values(), c.carried, c.fold))
		} else {
			c.view.Store(stats.NewOrdered(c.Values()))
		}
	})
	return c.view.Load()
}

// extended returns the column that continues c with the appended
// cells in values[c.Len():] (values from growTail), `missing` of them
// NaN. When c's order is already known it is carried forward by
// splicing in the appended rows, so the successor's first Ordered call
// does not sort the whole column again; the moments known with it are
// handed down as they are, and that call folds in the rows they miss.
func (c *NumericColumn) extended(values []float64, missing int) *NumericColumn {
	out := &NumericColumn{name: c.name, values: values, missing: c.missing + missing}
	order, fold := c.carried, c.fold
	if v := c.view.Load(); v != nil {
		order, fold = v.Order, v.Fold()
	}
	if order != nil {
		out.carried, out.fold = stats.ExtendOrder(order, values, len(c.values)), fold
	}
	return out
}

// CategoricalColumn is a dictionary-encoded string column. codes[i] is
// an index into dict, or -1 for a missing cell.
type CategoricalColumn struct {
	name string
	// codes has length Len(); the capacity past it is the tail (see
	// growTail), so every accessor hands out codes[:n:n].
	codes   []int32
	tail    atomic.Bool
	dict    []string
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
	return &CategoricalColumn{name: name, codes: d.codes, dict: d.dict, missing: d.missing}
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
	return &CategoricalColumn{name: name, codes: codes[:len(codes):len(codes)], dict: dict, missing: missing}, nil
}

// Name returns the attribute name.
func (c *CategoricalColumn) Name() string { return c.name }

// Kind returns Categorical.
func (c *CategoricalColumn) Kind() Kind { return Categorical }

// Len returns the number of cells.
func (c *CategoricalColumn) Len() int { return len(c.codes) }

// Missing returns the number of missing cells.
func (c *CategoricalColumn) Missing() int { return c.missing }

// IsMissing reports whether cell i is missing.
func (c *CategoricalColumn) IsMissing(i int) bool { return c.codes[i] < 0 }

// StringAt renders cell i, or "" when missing.
func (c *CategoricalColumn) StringAt(i int) string {
	if c.codes[i] < 0 {
		return ""
	}
	return c.dict[c.codes[i]]
}

// Codes returns the backing code slice (-1 = missing). Read-only;
// like Values, its capacity is its length.
func (c *CategoricalColumn) Codes() []int32 { return c.codes[:len(c.codes):len(c.codes)] }

// Dict returns the dictionary of distinct values. Read-only.
func (c *CategoricalColumn) Dict() []string { return c.dict }

// Cardinality returns the number of distinct non-missing values.
func (c *CategoricalColumn) Cardinality() int { return len(c.dict) }

// Counts returns the frequency of each dictionary entry, indexed by
// code. Missing cells are not counted.
func (c *CategoricalColumn) Counts() []int {
	counts := make([]int, len(c.dict))
	for _, code := range c.codes {
		if code >= 0 {
			counts[code]++
		}
	}
	return counts
}
