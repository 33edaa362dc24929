package durable

import (
	"fmt"
	"hash/crc32"
)

// Wire layout (all integers little-endian).
//
// WAL segment file:
//
//	8B magic "FWALSEG1"
//	records...
//
// WAL record frame:
//
//	u32 payload length | u32 CRC32C(payload) | payload
//
// Record payload:
//
//	u64 seq | u32 ncols, cols... | u32 nrows, rows...
//	string: u32 length | bytes
//	row:    u32 nfields | fields (strings)
//
// The CRC is Castagnoli (CRC32C) over the payload only; the length
// field is implicitly validated by the CRC failing when a torn write
// garbles it, and explicitly bounded against the bytes remaining in
// the segment so a corrupted length cannot drive a huge allocation.
const (
	walMagic  = "FWALSEG1"
	snapMagic = "FSNAPSH1"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordHeaderSize is the framed length+CRC prefix of a WAL record.
const recordHeaderSize = 8

// maxRecordPayload caps a single WAL record / snapshot body so a
// corrupted length prefix cannot drive an absurd allocation. 1 GiB is
// far above any real batch (HTTP ingest caps bodies at 1 MiB).
const maxRecordPayload = 1 << 30

// batchRecord is one WAL entry: the acked ingest batch exactly as it
// entered Engine.Ingest, plus its log sequence number.
type batchRecord struct {
	Seq     uint64
	Columns []string
	Records [][]string
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(appendU32(b, uint32(v)), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendString(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

func appendRow(b []byte, row []string) []byte {
	b = appendU32(b, uint32(len(row)))
	for _, cell := range row {
		b = appendString(b, cell)
	}
	return b
}

func appendRows(b []byte, rows [][]string) []byte {
	b = appendU32(b, uint32(len(rows)))
	for _, row := range rows {
		b = appendRow(b, row)
	}
	return b
}

// encode serializes the record payload (everything under the frame
// header).
func (r batchRecord) encode() []byte {
	n := 8 + 4 + 4
	for _, c := range r.Columns {
		n += 4 + len(c)
	}
	for _, row := range r.Records {
		n += 4
		for _, cell := range row {
			n += 4 + len(cell)
		}
	}
	b := make([]byte, 0, n)
	b = appendU64(b, r.Seq)
	b = appendU32(b, uint32(len(r.Columns)))
	for _, c := range r.Columns {
		b = appendString(b, c)
	}
	return appendRows(b, r.Records)
}

// frame wraps a payload in the length+CRC record header.
func frameRecord(payload []byte) []byte {
	out := make([]byte, 0, recordHeaderSize+len(payload))
	out = appendU32(out, uint32(len(payload)))
	out = appendU32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// cursor is a bounds-checked little-endian reader over a byte slice;
// the first failed read latches err and every later read returns zero
// values, so decoders check err once at the end.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("durable: truncated %s at offset %d", what, c.off)
	}
}

func (c *cursor) u32(what string) uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := uint32(c.b[c.off]) | uint32(c.b[c.off+1])<<8 | uint32(c.b[c.off+2])<<16 | uint32(c.b[c.off+3])<<24
	c.off += 4
	return v
}

func (c *cursor) u64(what string) uint64 {
	lo := c.u32(what)
	hi := c.u32(what)
	return uint64(lo) | uint64(hi)<<32
}

func (c *cursor) str(what string) string {
	n := int(c.u32(what))
	if c.err != nil {
		return ""
	}
	if n < 0 || c.off+n > len(c.b) {
		c.fail(what)
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// strs reads a u32 count and that many strings.
func (c *cursor) strs(what string) []string {
	n := int(c.u32(what + " count"))
	if c.err == nil && (n < 0 || n > (len(c.b)-c.off)/4+1) {
		c.fail(what + " count")
	}
	var out []string
	for i := 0; i < n && c.err == nil; i++ {
		out = append(out, c.str(what))
	}
	return out
}

func (c *cursor) rows(what string) [][]string {
	n := int(c.u32(what + " count"))
	if c.err != nil {
		return nil
	}
	// Each row costs at least 4 bytes; reject counts the remaining
	// bytes cannot possibly hold.
	if n < 0 || n > (len(c.b)-c.off)/4+1 {
		c.fail(what + " count")
		return nil
	}
	rows := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		nf := int(c.u32(what + " row width"))
		if c.err != nil {
			return nil
		}
		if nf < 0 || nf > (len(c.b)-c.off)/4+1 {
			c.fail(what + " row width")
			return nil
		}
		row := make([]string, 0, nf)
		for j := 0; j < nf; j++ {
			row = append(row, c.str(what+" cell"))
		}
		if c.err != nil {
			return nil
		}
		rows = append(rows, row)
	}
	return rows
}

// decodeBatchRecord parses a record payload (the CRC has already been
// verified by the caller).
func decodeBatchRecord(payload []byte) (batchRecord, error) {
	c := &cursor{b: payload}
	var r batchRecord
	r.Seq = c.u64("seq")
	r.Columns = c.strs("column name")
	r.Records = c.rows("record")
	if c.err != nil {
		return batchRecord{}, c.err
	}
	if c.off != len(payload) {
		return batchRecord{}, fmt.Errorf("durable: %d trailing bytes after record", len(payload)-c.off)
	}
	return r, nil
}
