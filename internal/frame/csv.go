package frame

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// ReadCSVOptions controls CSV ingestion and type inference.
type ReadCSVOptions struct {
	// Comma is the field delimiter; ',' when zero.
	Comma rune
	// MissingTokens are cell values treated as missing in addition to
	// the empty string (case-insensitive). Defaults to
	// ["na", "n/a", "nan", "null", "-"] when nil.
	MissingTokens []string
	// MaxCategories caps the number of distinct non-missing values a
	// column may have and still be ingested as categorical when it
	// fails numeric inference. Columns over the cap (free text, IDs)
	// are dropped from the frame — their cardinality defeats the
	// heavy-hitter and distinct sketches and every grouping they would
	// feed. Zero means no cap.
	MaxCategories int
	// NumericThreshold is the fraction of non-missing cells that must
	// parse as float64 for a column to be inferred numeric; cells that
	// fail to parse in such a column become missing. Default 0.95.
	NumericThreshold float64
}

// defaultMissingTokens are the MissingTokens of a nil list.
var defaultMissingTokens = []string{"na", "n/a", "nan", "null", "-"}

func (o *ReadCSVOptions) fill() {
	if o.Comma == 0 {
		o.Comma = ','
	}
	if o.MissingTokens == nil {
		o.MissingTokens = slices.Clone(defaultMissingTokens)
	}
	if o.NumericThreshold == 0 {
		o.NumericThreshold = 0.95
	}
	if o.MaxCategories < 0 {
		o.MaxCategories = 0
	}
}

// MissingIsDefault reports whether AppendRows reads every cell under o
// as it does under nil options: the missing tokens, the only rule of o
// that reaches an append, are nil or the default list. A nil o is the
// defaults.
func (o *ReadCSVOptions) MissingIsDefault() bool {
	return o == nil || o.MissingTokens == nil || slices.Equal(o.MissingTokens, defaultMissingTokens)
}

// missingCells decides which cells are missing under one set of
// options. A cell can only be a token if its first byte can start one,
// so that byte is looked up before anything is lowercased or compared:
// on numeric data almost every cell is settled by the lookup.
type missingCells struct {
	tokens []string
	// first[b] reports that a cell starting with byte b may lowercase to
	// a token: b's ASCII lowercase starts one, or b starts a multi-byte
	// rune (whose lowercase may be anything, ASCII included).
	first [256]bool
}

func (o *ReadCSVOptions) missingCells() missingCells {
	m := missingCells{tokens: o.MissingTokens}
	for b := 0x80; b < len(m.first); b++ {
		m.first[b] = true
	}
	for _, tok := range o.MissingTokens {
		if tok == "" {
			continue // the empty cell is missing whatever the tokens
		}
		b := tok[0]
		m.first[b] = true
		if 'a' <= b && b <= 'z' {
			m.first[b-'a'+'A'] = true
		}
	}
	return m
}

// is reports whether cell — already trimmed of surrounding space — is
// empty or, lowercased, one of the missing tokens.
func (m *missingCells) is(cell string) bool {
	if cell == "" {
		return true
	}
	if !m.first[cell[0]] {
		return false
	}
	lower := strings.ToLower(cell)
	for _, tok := range m.tokens {
		if lower == tok {
			return true
		}
	}
	return false
}

// parseNumber reads a non-missing cell as a finite float64, thousands
// separators allowed; anything else is not a number.
func parseNumber(cell string) (float64, bool) {
	if strings.IndexByte(cell, ',') >= 0 {
		cell = strings.ReplaceAll(cell, ",", "")
	}
	if cell == "" {
		return 0, false
	}
	// Every spelling ParseFloat accepts starts with a digit, a sign, a
	// point, an underscore, or the i/n of inf/nan. Refusing the rest
	// here spares a label column one error value per cell.
	switch b := cell[0]; {
	case '0' <= b && b <= '9', b == '-', b == '+', b == '.', b == '_',
		b == 'i', b == 'I', b == 'n', b == 'N':
	default:
		return 0, false
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

// keptSpellings is how many distinct texts a column that has parsed as
// numeric without exception may show before its texts stop being kept:
// past it the column is all but certainly numeric, and a dictionary of
// every spelling of every number would cost more than the column.
const keptSpellings = 64

// csvColumn is one column of the typed pass: every cell's numeric
// reading, the two counts inference needs, and — while the column may
// still turn out categorical — its cells as a dictionary.
type csvColumn struct {
	values           []float64 // NaN where missing or not a number
	present, numbers int       // non-missing cells; those that parsed
	texts            *dictionary
}

func (c *csvColumn) add(cell string, missing bool) {
	v := math.NaN()
	if !missing {
		c.present++
		if p, ok := parseNumber(cell); ok {
			v = p
			c.numbers++
		}
	}
	c.values = append(c.values, v)
	if c.texts != nil {
		c.texts.add(cell, missing)
		if len(c.texts.dict) > keptSpellings && c.numbers == c.present {
			c.texts = nil
		}
	}
}

func (c *csvColumn) numeric(opts *ReadCSVOptions) bool {
	return c.present > 0 && float64(c.numbers)/float64(c.present) >= opts.NumericThreshold
}

var utf8BOM = []byte("\xef\xbb\xbf")

// records returns a reader over data's records after the header line,
// and the header.
func records(data []byte, opts *ReadCSVOptions) (*csv.Reader, []string, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.Comma = opts.Comma
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true
	header, err := cr.Read()
	return cr, header, err
}

// ReadCSV ingests a CSV stream with a header row into a Frame, using
// per-column type inference: a column whose non-missing cells parse as
// float64 at a rate of at least NumericThreshold becomes numeric,
// otherwise categorical. Non-numeric columns with more than
// MaxCategories distinct values (when the cap is set) are dropped. A
// leading UTF-8 byte-order mark is not part of the first column's name.
// name labels the resulting Frame.
//
// The stream is read to its end first, then typed in one pass: each
// record's cells are trimmed, tested for missing, parsed and appended
// to their columns' values as the record goes by, and no cell's text
// outlives its record except as a dictionary entry. A column keeps a
// dictionary until it has shown more than keptSpellings distinct texts
// that all parsed as numbers; if such a column fails numeric inference
// after all (its text cells came late), a second pass over the bytes
// rebuilds the dictionaries of those columns alone.
func ReadCSV(r io.Reader, name string, opts *ReadCSVOptions) (*Frame, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		buf.Grow(sized.Len() + bytes.MinRead) // one read, no regrowth
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("frame: reading CSV: %w", err)
	}
	return parseCSV(buf.Bytes(), name, opts)
}

// ReadCSVFile is ReadCSV over a file path; the Frame is named after
// the file unless name is non-empty.
func ReadCSVFile(path, name string, opts *ReadCSVOptions) (*Frame, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("frame: %w", err)
	}
	if name == "" {
		name = path
	}
	return parseCSV(data, name, opts)
}

func parseCSV(data []byte, name string, opts *ReadCSVOptions) (*Frame, error) {
	if opts == nil {
		opts = &ReadCSVOptions{}
	}
	opts.fill()
	missing := opts.missingCells()
	data = bytes.TrimPrefix(data, utf8BOM)

	cr, header, err := records(data, opts)
	if err != nil {
		return nil, fmt.Errorf("frame: reading CSV header: %w", err)
	}
	if len(header) == 0 {
		return nil, fmt.Errorf("frame: empty CSV header")
	}
	names := make([]string, len(header)) // the reader reuses header
	for i, h := range header {
		names[i] = strings.TrimSpace(h)
		if names[i] == "" {
			names[i] = fmt.Sprintf("col%d", i)
		}
	}

	// A record is a line at least, and a byte a field at least.
	rows := min(bytes.Count(data, []byte{'\n'})+1, len(data)/len(names)+1)
	cols := make([]csvColumn, len(names))
	for i := range cols {
		cols[i].values = make([]float64, 0, rows)
		cols[i].texts = &dictionary{index: make(map[string]int32)}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("frame: reading CSV record: %w", err)
		}
		if len(rec) != len(names) {
			return nil, fmt.Errorf("frame: record has %d fields, header has %d", len(rec), len(names))
		}
		for i, cell := range rec {
			cell = strings.TrimSpace(cell)
			cols[i].add(cell, missing.is(cell))
		}
	}

	// Columns that let their texts go and then failed numeric inference.
	var late []int
	for i := range cols {
		if c := &cols[i]; c.texts == nil && !c.numeric(opts) {
			c.texts = &dictionary{index: make(map[string]int32)}
			late = append(late, i)
		}
	}
	if len(late) > 0 {
		cr, _, _ := records(data, opts)
		for {
			rec, err := cr.Read()
			if err != nil {
				break // io.EOF: the first pass read these bytes through
			}
			for _, i := range late {
				cell := strings.TrimSpace(rec[i])
				cols[i].texts.add(cell, missing.is(cell))
			}
		}
	}

	out := make([]Column, 0, len(names))
	for i := range cols {
		c := &cols[i]
		switch t := c.texts; {
		case c.numeric(opts):
			out = append(out, NewNumericColumn(names[i], c.values))
		case opts.MaxCategories > 0 && len(t.dict) > opts.MaxCategories:
			// Free text or an ID: dropped.
		default:
			out = append(out, t.column(names[i]))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("frame: no usable columns (all %d over MaxCategories=%d)", len(names), opts.MaxCategories)
	}
	return New(name, out...)
}

// WriteCSV serializes the frame as CSV with a header row. Missing
// cells are written as empty strings.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.Names()); err != nil {
		return fmt.Errorf("frame: writing CSV header: %w", err)
	}
	rec := make([]string, f.Cols())
	for i := 0; i < f.Rows(); i++ {
		for j, c := range f.cols {
			rec[j] = c.StringAt(i)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("frame: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
