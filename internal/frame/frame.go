package frame

import (
	"errors"
	"fmt"
)

// SemanticType is optional attribute metadata describing what an
// attribute represents. Insight queries can constrain candidate
// attributes by semantic type (the paper lists this as a natural query
// extension, e.g. "attributes that represent currency or dates").
type SemanticType string

// Built-in semantic types. The set is open: any string is accepted.
const (
	SemanticNone     SemanticType = ""
	SemanticCurrency SemanticType = "currency"
	SemanticDate     SemanticType = "date"
	SemanticPercent  SemanticType = "percent"
	SemanticCount    SemanticType = "count"
	SemanticScore    SemanticType = "score"
)

// Metadata carries per-attribute annotations that are not derivable
// from the values themselves.
type Metadata struct {
	// Semantic classifies what the attribute measures (currency, date…).
	Semantic SemanticType
	// Unit is a display unit such as "USD" or "hours/week".
	Unit string
	// Description is free-form documentation for the attribute.
	Description string
}

// Frame is an immutable-by-convention columnar table: the n×d matrix A
// of the paper, with n data items (rows) and d attributes (columns).
// All columns have the same length. Column names are unique.
type Frame struct {
	name   string
	cols   []Column
	byName map[string]int
	meta   map[string]Metadata
	rows   int
}

// ErrEmptyFrame is returned by constructors given no columns.
var ErrEmptyFrame = errors.New("frame: no columns")

// New builds a Frame named name over cols. All columns must have equal
// length and distinct names.
func New(name string, cols ...Column) (*Frame, error) {
	if len(cols) == 0 {
		return nil, ErrEmptyFrame
	}
	f := &Frame{
		name:   name,
		cols:   cols,
		byName: make(map[string]int, len(cols)),
		meta:   make(map[string]Metadata),
		rows:   cols[0].Len(),
	}
	for i, c := range cols {
		if c.Len() != f.rows {
			return nil, fmt.Errorf("frame: column %q has %d rows, want %d", c.Name(), c.Len(), f.rows)
		}
		if _, dup := f.byName[c.Name()]; dup {
			return nil, fmt.Errorf("frame: duplicate column name %q", c.Name())
		}
		f.byName[c.Name()] = i
	}
	return f, nil
}

// MustNew is New but panics on error; intended for tests and generated
// data where the shape is known to be valid.
func MustNew(name string, cols ...Column) *Frame {
	f, err := New(name, cols...)
	if err != nil {
		panic(err)
	}
	return f
}

// Name returns the dataset name.
func (f *Frame) Name() string { return f.name }

// Rows returns n, the number of data items.
func (f *Frame) Rows() int { return f.rows }

// Cols returns d, the number of attributes.
func (f *Frame) Cols() int { return len(f.cols) }

// Column returns the i-th column.
func (f *Frame) Column(i int) Column { return f.cols[i] }

// Lookup returns the column with the given name, or false.
func (f *Frame) Lookup(name string) (Column, bool) {
	i, ok := f.byName[name]
	if !ok {
		return nil, false
	}
	return f.cols[i], true
}

// ColumnIndex returns the index of the named column, or -1.
func (f *Frame) ColumnIndex(name string) int {
	i, ok := f.byName[name]
	if !ok {
		return -1
	}
	return i
}

// Names returns all column names in column order.
func (f *Frame) Names() []string {
	names := make([]string, len(f.cols))
	for i, c := range f.cols {
		names[i] = c.Name()
	}
	return names
}

// NumericColumns returns the set B of numeric columns, in column order.
func (f *Frame) NumericColumns() []*NumericColumn {
	var out []*NumericColumn
	for _, c := range f.cols {
		if nc, ok := c.(*NumericColumn); ok {
			out = append(out, nc)
		}
	}
	return out
}

// CategoricalColumns returns the set C of categorical columns, in
// column order.
func (f *Frame) CategoricalColumns() []*CategoricalColumn {
	var out []*CategoricalColumn
	for _, c := range f.cols {
		if cc, ok := c.(*CategoricalColumn); ok {
			out = append(out, cc)
		}
	}
	return out
}

// Numeric returns the named column as numeric, or an error if it is
// absent or categorical.
func (f *Frame) Numeric(name string) (*NumericColumn, error) {
	c, ok := f.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("frame: no column %q", name)
	}
	nc, ok := c.(*NumericColumn)
	if !ok {
		return nil, fmt.Errorf("frame: column %q is %s, want numeric", name, c.Kind())
	}
	return nc, nil
}

// Categorical returns the named column as categorical, or an error if
// it is absent or numeric.
func (f *Frame) Categorical(name string) (*CategoricalColumn, error) {
	c, ok := f.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("frame: no column %q", name)
	}
	cc, ok := c.(*CategoricalColumn)
	if !ok {
		return nil, fmt.Errorf("frame: column %q is %s, want categorical", name, c.Kind())
	}
	return cc, nil
}

// SetMeta attaches metadata to the named column. It returns an error
// if the column does not exist.
func (f *Frame) SetMeta(name string, m Metadata) error {
	if _, ok := f.byName[name]; !ok {
		return fmt.Errorf("frame: no column %q", name)
	}
	f.meta[name] = m
	return nil
}

// Meta returns the metadata attached to the named column (zero value
// if none was set).
func (f *Frame) Meta(name string) Metadata { return f.meta[name] }

// Summary returns a short human-readable description of the frame
// shape and column kinds, for logging and CLIs.
func (f *Frame) Summary() string {
	numeric, categorical := 0, 0
	for _, c := range f.cols {
		if c.Kind() == Numeric {
			numeric++
		} else {
			categorical++
		}
	}
	return fmt.Sprintf("%s: %d rows × %d cols (%d numeric, %d categorical)",
		f.name, f.rows, len(f.cols), numeric, categorical)
}

// FilterRows returns a new Frame containing only the rows where
// keep[i] is true — the substrate for drill-down exploration (§2's
// "adding constraints on the data attributes"). Metadata is carried
// over. len(keep) must equal Rows().
func (f *Frame) FilterRows(keep []bool) (*Frame, error) {
	if len(keep) != f.rows {
		return nil, fmt.Errorf("frame: keep mask has %d entries for %d rows", len(keep), f.rows)
	}
	count := 0
	for _, k := range keep {
		if k {
			count++
		}
	}
	cols := make([]Column, len(f.cols))
	for ci, c := range f.cols {
		switch col := c.(type) {
		case *NumericColumn:
			vals := make([]float64, 0, count)
			for i, k := range keep {
				if k {
					vals = append(vals, col.At(i))
				}
			}
			cols[ci] = NewNumericColumn(col.Name(), vals)
		case *CategoricalColumn:
			// Re-dictionary through string values so the filtered
			// column's cardinality reflects the values actually
			// present (a drill-down to one cohort must not keep
			// phantom levels).
			vals := make([]string, 0, count)
			for i, k := range keep {
				if k {
					vals = append(vals, col.StringAt(i))
				}
			}
			cols[ci] = NewCategoricalColumn(col.Name(), vals)
		default:
			return nil, fmt.Errorf("frame: cannot filter column kind %T", c)
		}
	}
	out, err := New(f.name+"/filtered", cols...)
	if err != nil {
		return nil, err
	}
	for name, m := range f.meta {
		_ = out.SetMeta(name, m)
	}
	return out, nil
}
