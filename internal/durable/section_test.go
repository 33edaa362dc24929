package durable

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// contiguousSection is the row section as one buffer that every batch's
// cells are encoded onto, one by one: the layout the block list keeps,
// built the way it was before blocks, as the oracle for the bytes a
// checkpoint writes.
type contiguousSection struct {
	n int
	b []byte
}

func (s *contiguousSection) add(cols, columns []string, records [][]string) {
	s.n += len(records)
	if len(columns) == 0 {
		for _, rec := range records {
			s.b = appendRow(s.b, rec)
		}
		return
	}
	for _, rec := range records {
		s.b = appendU32(s.b, uint32(len(cols)))
		for _, name := range cols {
			cell := ""
			if fi := slices.Index(columns, name); fi >= 0 {
				cell = rec[fi]
			}
			s.b = appendString(s.b, cell)
		}
	}
}

// contiguousSnapshotFile is a whole snapshot file encoded in one buffer
// from a contiguous row section: the oracle for writeSnapshot.
func contiguousSnapshotFile(seq uint64, baseRows int, cols []string, rows contiguousSection, profile []byte) []byte {
	body := appendU64(nil, seq)
	body = appendU64(body, uint64(baseRows))
	body = appendU32(body, uint32(len(cols)))
	for _, c := range cols {
		body = appendString(body, c)
	}
	body = append(appendU32(body, uint32(rows.n)), rows.b...)
	if profile == nil {
		body = append(body, 0)
	} else {
		body = append(appendU64(append(body, 1), uint64(len(profile))), profile...)
	}
	return snapshotFile(body, crc32.Checksum(body, crcTable))
}

// randomLifeBatch is a batch over lifeFrame's columns in one of three
// shapes — the frame's order with no names, every column named in a
// shuffled order, some columns named — with missing tokens, padded
// cells and labels new to the dictionaries.
func randomLifeBatch(rng *rand.Rand) frame.RowBatch {
	names := lifeFrame().Names()
	var b frame.RowBatch
	cols := names
	switch rng.Intn(3) {
	case 1:
		cols = slices.Clone(names)
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		b.Columns = cols
	case 2:
		cols = slices.Clone(names)
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		cols = cols[:1+rng.Intn(len(cols)-1)]
		b.Columns = cols
	}
	for range 1 + rng.Intn(6) {
		rec := make([]string, len(cols))
		for i, name := range cols {
			if name == "x" || name == "y" {
				rec[i] = []string{"", "NA", "-", fmt.Sprintf("%.3f", rng.Float64()*100), " 12 ", "1e3"}[rng.Intn(6)]
			} else {
				rec[i] = []string{"", "a", fmt.Sprintf("lvl%d", rng.Intn(9)), " pad ", "ünï"}[rng.Intn(5)]
			}
		}
		b.Records = append(b.Records, rec)
	}
	return b
}

// TestDiskBytesMatchContiguousEncoders: over random ingest sequences —
// batches in frame order, batches naming their columns, and batches the
// WAL refuses — the WAL segment holds, byte for byte, each logged
// batch's frameRecord(encode()), and every checkpoint writes the file
// that a contiguous row section and a body in one buffer encode: the
// same rows (refused batches included), the profile captured at the
// last logged batch, and its seq.
func TestDiskBytesMatchContiguousEncoders(t *testing.T) {
	ctx := context.Background()
	cols := lifeFrame().Names()
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := NewErrFS()
			e := lifeEngine(t, 0)
			m, _ := recoverLife(t, fs, e)
			defer m.Close()
			var section contiguousSection
			wantWAL := []byte(walMagic)
			var seq uint64
			snapRows, snapProfile, snapSeq := section, saved(t, e.Profile()), seq
			refusals := 0
			for i := range 30 {
				batch := randomLifeBatch(rng)
				refused := i > 0 && rng.Intn(5) == 0
				if refused {
					refusals++
					fs.mu.Lock()
					fs.failWriteAt = fs.writeCalls + 1 // this batch's record
					fs.mu.Unlock()
				}
				if _, err := e.Ingest(ctx, batch, nil); (err != nil) != refused {
					t.Fatalf("batch %d (refused %v): error %v", i, refused, err)
				}
				section.add(cols, batch.Columns, batch.Records)
				if !refused {
					seq++
					wantWAL = append(wantWAL, frameRecord(batchRecord{Seq: seq, Columns: batch.Columns, Records: batch.Records}.encode())...)
					snapRows = contiguousSection{n: section.n, b: slices.Clone(section.b)}
					snapProfile, snapSeq = saved(t, e.Profile()), seq
				}
				if i%4 == 3 || i == 29 {
					if err := m.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					got := readAll(t, fs, join("wal", snapshotName(snapSeq)))
					want := contiguousSnapshotFile(snapSeq, lifeFrame().Rows(), cols, snapRows, snapProfile)
					if !bytes.Equal(got, want) {
						t.Fatalf("checkpoint after batch %d: snapshot at seq %d is %d bytes, the contiguous encoders' %d, and they differ",
							i, snapSeq, len(got), len(want))
					}
				}
			}
			if refusals == 0 {
				t.Fatal("no batch was refused; pick another seed")
			}
			if got := readAll(t, fs, join("wal", segmentName(1))); !bytes.Equal(got, wantWAL) {
				t.Fatalf("WAL segment is %d bytes, the oracle's %d, and they differ", len(got), len(wantWAL))
			}
		})
	}
}

// TestAppendBatchAllocationCeiling holds an acknowledgement's durable
// half to one encoding: AppendBatch of a 250-row batch in frame order,
// at the repository benchmark's ingest width (48 numeric and 4
// categorical columns), allocates its framed WAL record and a small
// constant, and so does every later batch, however many rows the section
// already holds. A section encoded onto one growing buffer re-copies
// every earlier row each time the buffer grows, and encodes the cells a
// second time besides.
func TestAppendBatchAllocationCeiling(t *testing.T) {
	const base, rows, batches, slack = 200, 250, 40, 16 << 10
	src := datagen.Scalable(datagen.ScalableConfig{Rows: base + rows, NumericCols: 48, CatCols: 4, Seed: 5})
	keep := make([]bool, src.Rows())
	for i := range base {
		keep[i] = true
	}
	f, err := src.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	e, err := query.NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, K: 32}))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncOff, CheckpointRows: -1, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Recover(e); err != nil {
		t.Fatal(err)
	}
	var batch frame.RowBatch
	for r := base; r < base+rows; r++ {
		rec := make([]string, src.Cols())
		for c := range rec {
			rec[c] = src.Column(c).StringAt(r)
		}
		batch.Records = append(batch.Records, rec)
	}
	framed := uint64(len(frameBatch(1, nil, batch.Records)))
	res := query.IngestResult{RowsAppended: rows}
	var total uint64
	var before, after runtime.MemStats
	for i := range batches {
		runtime.ReadMemStats(&before)
		if err := m.AppendBatch(batch, res); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		cost := after.TotalAlloc - before.TotalAlloc
		total += cost
		if cost > framed+slack {
			t.Fatalf("batch %d: AppendBatch allocated %d bytes, ceiling %d (a %d-byte framed record and %d)", i, cost, framed+slack, framed, slack)
		}
	}
	t.Logf("%d batches of %d rows: %d bytes allocated, %d per %d-byte framed record", batches, rows, total, total/batches, framed)
	if m.rows.n != batches*rows || len(m.rows.blocks) != batches {
		t.Fatalf("section holds %d rows in %d blocks, want %d in %d", m.rows.n, len(m.rows.blocks), batches*rows, batches)
	}
}
