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
// The cost is O(batch) cells per column: a column is its loaded prefix
// plus the rows appended since in tail chunks (see cells), and a
// successor column shares its predecessor's arrays and writes only
// past the predecessor's Len() — into the spare capacity there when
// the batch fits, else into a new chunk — so a chain of appends, each
// onto the frame the last one returned, as live ingest does, copies no
// column. Each categorical dictionary, and the index from text to
// code, grows the same way. Appending to the same frame twice is
// allowed; the second successor writes a chunk of its own. A whole-
// column reader (Values, Codes, Ordered…) folds a column's chunks into
// one array once, on first call, and the column's successor takes that
// array's spare capacity. A numeric column hands its successor the
// base run and moments its ordered view had (or it was handed); the
// successor's first Ordered call sorts only the rows after the base,
// O(d·log d) for d of them, rather than re-sorting.
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

	k := len(b.Records)
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
			next := new(NumericColumn)
			vals, _ := col.cells.extendInto(&next.cells, k)
			missing := 0
			for r := range vals {
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
				vals[r] = v
			}
			col.extended(next, missing)
			cols[ci] = next
		case *CategoricalColumn:
			// With the tail claim the successor takes the dictionary's spare
			// capacity and its index; without it, a copy that grows.
			next := &CategoricalColumn{name: col.name}
			codes, owner := col.cells.extendInto(&next.cells, k)
			d := dictionary{codes: codes[:0], dict: col.dict, index: col.index}
			if !owner {
				d.dict, d.index = d.dict[:len(d.dict):len(d.dict)], nil
			}
			if d.index == nil {
				d.index = make(map[string]int32, len(d.dict))
				for code, v := range d.dict {
					d.index[v] = int32(code)
				}
			}
			for r := range codes {
				s := cell(r)
				d.add(s, missingCell.is(s))
			}
			next.dict, next.index, next.missing = d.dict, d.index, col.missing+d.missing
			cols[ci] = next
		default:
			return nil, fmt.Errorf("frame: append: cannot append to column kind %T", c)
		}
	}
	// The columns keep their names and order, so the name index is f's,
	// which nothing writes after New; the metadata is the successor's own.
	out := &Frame{name: f.name, cols: cols, byName: f.byName, meta: make(map[string]Metadata, len(f.meta)), rows: f.rows + k}
	for name, m := range f.meta {
		out.meta[name] = m
	}
	return out, nil
}
