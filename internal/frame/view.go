package frame

import "fmt"

// Zero-copy row-range views. The profile builder (package sketch)
// runs its sketch pass over a row range — every row at startup, the
// appended batch on ingest; these views hand it that window of every
// column's backing array without copying a single value. A view
// is valid as long as the frame is — frames are immutable by
// convention, so views never observe mutation.

// ValuesRange returns the zero-copy window values[start:end) of the
// column's backing slice (NaN = missing). Read-only, like Values.
// Panics when the range is out of bounds, matching slice semantics.
func (c *NumericColumn) ValuesRange(start, end int) []float64 {
	return c.values[start:end:end]
}

// CodesRange returns the zero-copy window codes[start:end) of the
// dictionary-code slice (-1 = missing). Read-only, like Codes.
// Panics when the range is out of bounds, matching slice semantics.
func (c *CategoricalColumn) CodesRange(start, end int) []int32 {
	return c.codes[start:end:end]
}

// RowView is a zero-copy view of rows [Start, End) of a frame: one
// contiguous row range. It carries no data of its own — every accessor
// returns a window into the underlying column's backing array.
type RowView struct {
	f          *Frame
	start, end int
}

// RowView returns the view of rows [start, end). It errors (rather
// than panics) on an invalid range so range-boundary arithmetic bugs
// surface as errors at the call site.
func (f *Frame) RowView(start, end int) (RowView, error) {
	if start < 0 || end < start || end > f.rows {
		return RowView{}, fmt.Errorf("frame: row view [%d,%d) out of range [0,%d)", start, end, f.rows)
	}
	return RowView{f: f, start: start, end: end}, nil
}

// Start returns the first row of the view.
func (v RowView) Start() int { return v.start }

// End returns one past the last row of the view.
func (v RowView) End() int { return v.end }

// Rows returns the number of rows in the view.
func (v RowView) Rows() int { return v.end - v.start }

// NumericValues returns the view's window of the i-th numeric column
// (indexing Frame.NumericColumns order). Zero-copy; read-only.
func (v RowView) NumericValues(i int) []float64 {
	return v.f.NumericColumns()[i].ValuesRange(v.start, v.end)
}

// CategoricalCodes returns the view's window of the i-th categorical
// column (indexing Frame.CategoricalColumns order). Zero-copy;
// read-only.
func (v RowView) CategoricalCodes(i int) []int32 {
	return v.f.CategoricalColumns()[i].CodesRange(v.start, v.end)
}
