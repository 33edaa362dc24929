package frame

import (
	"fmt"
	"math"
	"strings"
)

// RowBatch is a batch of rows to append to an existing Frame, as raw
// string cells (the same wire shape CSV and JSON ingest produce).
type RowBatch struct {
	// Columns names the fields of each record, in record order. Empty
	// means the frame's own column order. Every named column must
	// exist in the frame; frame columns not named receive missing
	// cells.
	Columns []string
	// Records are the rows to append; each must have len(Columns)
	// fields (or frame-width fields when Columns is empty).
	Records [][]string
}

// AppendRows returns a new Frame with the batch's rows appended,
// applying the same missing-value and parse rules as ReadCSV: cells
// matching a missing token (or empty) are missing, numeric cells that
// fail to parse become NaN, and categorical cells extend the
// dictionary on first appearance. Column types are fixed by the
// receiver — no re-inference. No cell, length or count a reader of f
// can see changes, so concurrent readers of f stay consistent; an
// empty batch returns f itself.
//
// The cost is amortised O(batch) cells per column, plus a copy of each
// categorical dictionary: a successor column shares its predecessor's
// backing array and writes only the spare capacity above the
// predecessor's Len() (see growTail), so a chain of appends — each
// onto the frame the last one returned, as live ingest does — copies a
// column only when it outgrows its array. Appending to the same frame
// twice is allowed; the second successor copies. A numeric column
// whose ordered view was already built hands its row order to the
// successor column, merged with the batch rows in O(n + b·log n)
// rather than re-sorted; a column nobody ordered hands over nothing.
// opts may be nil for defaults; only Comma is ignored (the batch is
// already split into cells).
func (f *Frame) AppendRows(b RowBatch, opts *ReadCSVOptions) (*Frame, error) {
	if opts == nil {
		opts = &ReadCSVOptions{}
	}
	opts.fill()
	if len(b.Records) == 0 {
		return f, nil
	}
	missingCell := opts.missingCells()
	names := b.Columns
	if len(names) == 0 {
		names = f.Names()
	}
	// fieldOf[ci] is the record field holding frame column ci, or -1.
	fieldOf := make([]int, len(f.cols))
	for i := range fieldOf {
		fieldOf[i] = -1
	}
	for bi, name := range names {
		ci := f.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("frame: append: no column %q (have %v)", name, f.Names())
		}
		if fieldOf[ci] != -1 {
			return nil, fmt.Errorf("frame: append: duplicate column %q", name)
		}
		fieldOf[ci] = bi
	}
	for ri, rec := range b.Records {
		if len(rec) != len(names) {
			return nil, fmt.Errorf("frame: append: record %d has %d fields, want %d", ri, len(rec), len(names))
		}
	}

	cols := make([]Column, len(f.cols))
	for ci, c := range f.cols {
		bi := fieldOf[ci]
		cell := func(r int) string {
			if bi < 0 {
				return ""
			}
			return strings.TrimSpace(b.Records[r][bi])
		}
		switch col := c.(type) {
		case *NumericColumn:
			vals := growTail(col.values, &col.tail, len(b.Records))
			missing := 0
			for r := range b.Records {
				s := cell(r)
				v := math.NaN()
				if !missingCell.is(s) {
					if p, ok := parseNumber(s); ok {
						v = p
					}
				}
				if math.IsNaN(v) {
					missing++
				}
				vals[f.rows+r] = v
			}
			cols[ci] = col.extended(vals, missing)
		case *CategoricalColumn:
			// The successor's codes continue the predecessor's in the array
			// growTail hands over; its dictionary is a copy that grows.
			codes := growTail(col.codes, &col.tail, len(b.Records))
			d := dictionary{
				codes:   codes[:f.rows],
				dict:    append([]string(nil), col.dict...),
				index:   make(map[string]int32, len(col.dict)),
				missing: col.missing,
			}
			for code, v := range d.dict {
				d.index[v] = int32(code)
			}
			for r := range b.Records {
				s := cell(r)
				d.add(s, missingCell.is(s))
			}
			cols[ci] = d.column(col.name)
		default:
			return nil, fmt.Errorf("frame: append: cannot append to column kind %T", c)
		}
	}
	out, err := New(f.name, cols...)
	if err != nil {
		return nil, err
	}
	for name, m := range f.meta {
		_ = out.SetMeta(name, m)
	}
	return out, nil
}
