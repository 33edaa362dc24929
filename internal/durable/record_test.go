package durable

import (
	"bytes"
	"runtime"
	"testing"
)

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
// re-encoding the record reproduces it byte for byte.
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
	})
}
