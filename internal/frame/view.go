package frame

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
