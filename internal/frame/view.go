package frame

// Zero-copy row-range views. A profile build (package sketch) runs its
// sketch pass over every row of a frame; these views hand it a window
// of every column's cells without copying a single value. A view is
// valid as long as the frame is — frames are immutable by convention,
// so views never observe mutation.

// ValuesRange returns the cells [start, end) of the column (NaN =
// missing), capacity end−start. Read-only, like Values. The window is
// zero-copy when the cells lie in one segment — the loaded prefix or a
// tail chunk; a range that crosses into the tail folds the column, as
// Values does. Panics when the range is out of bounds.
func (c *NumericColumn) ValuesRange(start, end int) []float64 {
	return c.cells.window(start, end)
}

// CodesRange returns the codes of cells [start, end) (-1 = missing),
// capacity end−start, under ValuesRange's rules. Read-only, like Codes.
func (c *CategoricalColumn) CodesRange(start, end int) []int32 {
	return c.cells.window(start, end)
}
