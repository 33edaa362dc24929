package durable

import (
	"bytes"
	"hash/crc32"
	"runtime"
	"testing"
)

// encode serializes the record payload (everything under the frame
// header) the way the log did before frameBatch built the framed record
// in one buffer: the oracle for the bytes frameBatch writes.
func (r batchRecord) encode() []byte {
	b := appendU64(nil, r.Seq)
	b = appendU32(b, uint32(len(r.Columns)))
	for _, c := range r.Columns {
		b = appendString(b, c)
	}
	b = appendU32(b, uint32(len(r.Records)))
	for _, row := range r.Records {
		b = appendRow(b, row)
	}
	return b
}

// frameRecord wraps a payload in the length+CRC record header; with
// encode, the oracle for frameBatch.
func frameRecord(payload []byte) []byte {
	out := appendU32(nil, uint32(len(payload)))
	out = appendU32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// checkFramed fails unless frameBatch frames rec as the oracle does, in
// a buffer of exactly that size, with its rows at rowsAt.
func checkFramed(t *testing.T, rec batchRecord) {
	t.Helper()
	payload := rec.encode()
	got := frameBatch(rec.Seq, rec.Columns, rec.Records)
	if want := frameRecord(payload); !bytes.Equal(got, want) {
		t.Fatalf("record %d frames differently:\n got  %x\n want %x", rec.Seq, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("record %d: a %d-byte frame in a %d-byte buffer", rec.Seq, len(got), cap(got))
	}
	// The rows past their count, where the payload's record count ends.
	c := &cursor{b: payload}
	c.u64("seq")
	c.strs("column name")
	c.u32("record count")
	if at := rowsAt(rec.Columns); !bytes.Equal(got[at:], payload[c.off:]) {
		t.Fatalf("record %d: rows at %d of the frame are not the payload's rows", rec.Seq, at)
	}
}

// decodeAllocCeiling is what the decoder's length guards let an L-byte
// payload allocate. Every count is held to what the remaining bytes
// could spell out at 4 bytes an entry, so the row headers (24 B), the
// cell and column headers (16 B, doubled for append growth) and the
// cell bytes themselves are each a small multiple of L; the constant
// covers the error value and size-class rounding.
func decodeAllocCeiling(l int) uint64 { return 64*uint64(l) + 4096 }

// decodeAllocBytes decodes payload and reports the heap bytes it
// allocated: the fewer of two runs, so an allocation elsewhere in the
// process during one of them does not count against the decoder.
func decodeAllocBytes(payload []byte) (batchRecord, uint64, error) {
	var rec batchRecord
	var err error
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 2 {
		runtime.ReadMemStats(&before)
		rec, err = decodeBatchRecord(payload)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return rec, least, err
}

// FuzzBatchRecord feeds arbitrary payloads to the WAL record decoder,
// which reads whatever bytes it finds on disk. It must never panic, its
// allocation stays within what the length guards allow however large a
// count the payload states, and any payload it accepts is canonical:
// re-encoding the record reproduces it byte for byte, and frameBatch
// frames it as the oracle does.
func FuzzBatchRecord(f *testing.F) {
	valid := batchRecord{
		Seq:     7,
		Columns: []string{"x", "g"},
		Records: [][]string{{"1.5", "a"}, {"", "b"}},
	}.encode()
	f.Add(batchRecord{}.encode())
	f.Add(valid)
	f.Add(batchRecord{Seq: 1 << 40, Columns: []string{"x"}, Records: [][]string{{}, {"1", "2", "3"}}}.encode())
	for n := range len(valid) {
		f.Add(valid[:n])
	}
	f.Add(append(append([]byte(nil), valid...), 0))
	// In each count position (columns, column-name length, rows, row
	// width), a count the bytes cannot hold: a moderate one and a huge
	// one.
	seq := appendU64(nil, 3)
	for _, n := range []uint32{1 << 12, 0xFFFFFFFF} {
		f.Add(appendU32(seq, n))
		f.Add(appendU32(appendU32(seq, 1), n))
		f.Add(appendU32(appendU32(seq, 0), n))
		f.Add(appendU32(appendU32(appendU32(seq, 0), 1), n))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, alloc, err := decodeAllocBytes(payload)
		if limit := decodeAllocCeiling(len(payload)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, ceiling %d", len(payload), alloc, limit)
		}
		if err != nil {
			return
		}
		if got := rec.encode(); !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", payload, got)
		}
		checkFramed(t, rec)
	})
}
