package durable

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"foresight/internal/sketch"
)

// A snapshot is one atomic checkpoint of everything ingested since the
// process's base dataset was loaded: the appended rows, as the cells
// ingest accepted them (replaying them through AppendRows reproduces
// the frame bit-identically), and, when the engine carries one, the
// sketch store in its Save form. The file name carries the WAL
// sequence number of the last batch the snapshot covers; recovery
// loads the newest valid snapshot and replays only WAL records after
// that sequence.
//
// File layout: 8B magic "FSNAPSH1" | u64 body length | u32 CRC32C(body)
// | body. Body: u64 seq | u64 baseRows | u32 ncols, columns | u32 nrows,
// rows | u8 hasProfile (0 or 1) | [u64 profile length | profile as
// sketch.Save wrote it]. Strings and rows are laid out as in a WAL
// record (record.go); a row holds one cell per column, in column order.
// Writes are atomic: temp file + fsync + rename + directory fsync.
//
// The profile section is versioned by the sketch package, not here. A
// snapshot whose section was written under an older wire version (its
// dots follow a direction stream this binary no longer draws) is still
// a valid snapshot of the rows: loadSnapshot returns it with a nil
// profile, and recovery replays the rows through Ingest.

// snapshotHeaderSize is the magic, body length and CRC before a body.
const snapshotHeaderSize = len(snapMagic) + 12

// rowSection is a snapshot's row section held encoded: n rows in the
// WAL's row layout, without the section's leading count, as a list of
// per-batch blocks. The manager keeps one for every row appended since
// the base dataset and appends a block as each batch is logged, so a
// checkpoint writes rows it never has to render. A batch in frame column
// order adds the rows of its own WAL record, so its cells are encoded
// once, for the log; no block is ever copied again. A copy of a section
// is a prefix that later appends leave alone, since they write only past
// its length.
type rowSection struct {
	n      int
	blocks [][]byte
}

// addBlock appends a block of n rows already in the section's layout.
func (s *rowSection) addBlock(n int, block []byte) {
	if n == 0 {
		return
	}
	s.n += n
	s.blocks = append(s.blocks, block)
}

// add appends records as one exact-size block with one cell per column
// of cols, in cols' order. columns names the records' fields as a
// frame.RowBatch does (empty: cols itself); a column the batch does not
// name gets the empty cell, which AppendRows reads as missing, just as
// it reads an unnamed column.
func (s *rowSection) add(cols, columns []string, records [][]string) {
	if len(columns) > 0 {
		fieldOf := make([]int, len(cols))
		for ci, name := range cols {
			fieldOf[ci] = slices.Index(columns, name)
		}
		ordered := make([][]string, len(records))
		for ri, rec := range records {
			ordered[ri] = make([]string, len(cols))
			for ci, fi := range fieldOf {
				if fi >= 0 {
					ordered[ri][ci] = rec[fi]
				}
			}
		}
		records = ordered
	}
	b := make([]byte, 0, rowsSize(records))
	for _, rec := range records {
		b = appendRow(b, rec)
	}
	s.addBlock(len(records), b)
}

// snapshotBody is a snapshot's body as it is on disk: the profile
// section is still the bytes sketch.Save wrote.
type snapshotBody struct {
	Seq      uint64
	BaseRows int
	Cols     []string
	Rows     rowSection
	// Records are Rows decoded; parseSnapshot fills them, the writer
	// reads Rows alone.
	Records [][]string
	// Profile is nil when the snapshot has no profile section.
	Profile []byte
}

// pieces returns the body's encoding in parts — what precedes the rows,
// each block of rows, the profile flag and length, the profile — so that
// writing it copies neither of the large sections into a body buffer.
func (b *snapshotBody) pieces() [][]byte {
	head := appendU64(nil, b.Seq)
	head = appendU64(head, uint64(b.BaseRows))
	head = appendU32(head, uint32(len(b.Cols)))
	for _, c := range b.Cols {
		head = appendString(head, c)
	}
	head = appendU32(head, uint32(b.Rows.n))
	flag := []byte{0}
	if b.Profile != nil {
		flag = appendU64([]byte{1}, uint64(len(b.Profile)))
	}
	out := make([][]byte, 0, len(b.Rows.blocks)+3)
	out = append(out, head)
	out = append(out, b.Rows.blocks...)
	return append(out, flag, b.Profile)
}

func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

type snapshotInfo struct {
	seq  uint64
	name string // full path
}

// listSnapshots returns the directory's snapshots, newest first.
func listSnapshots(fsys FS, dir string) ([]snapshotInfo, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapshotInfo
	for _, name := range names {
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
		seq, err := strconv.ParseUint(hexpart, 16, 64)
		if err != nil {
			continue
		}
		snaps = append(snaps, snapshotInfo{seq: seq, name: join(dir, name)})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	return snaps, nil
}

// snapshotWriteBuffer sizes the buffered writer a checkpoint writes
// through.
const snapshotWriteBuffer = 256 << 10

// writeSnapshot persists body atomically and returns the final path.
func writeSnapshot(fsys FS, dir string, body *snapshotBody) (string, error) {
	pieces := body.pieces()
	var size uint64
	var sum uint32
	for _, p := range pieces {
		size += uint64(len(p))
		sum = crc32.Update(sum, crcTable, p)
	}

	final := join(dir, snapshotName(body.Seq))
	tmp := final + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("durable: creating snapshot temp file: %w", err)
	}
	// One buffered writer: a section of many small blocks costs a few
	// large writes, not a write per block.
	w := bufio.NewWriterSize(f, snapshotWriteBuffer)
	_, err = w.Write(appendU32(appendU64([]byte(snapMagic), size), sum))
	for _, p := range pieces {
		if err == nil {
			_, err = w.Write(p)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		_ = fsys.Remove(tmp)
		return "", fmt.Errorf("durable: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = fsys.Remove(tmp)
		return "", fmt.Errorf("durable: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("durable: closing snapshot: %w", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		_ = fsys.Remove(tmp)
		return "", fmt.Errorf("durable: publishing snapshot: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return "", fmt.Errorf("durable: syncing snapshot directory: %w", err)
	}
	return final, nil
}

// loadSnapshot reads and fully validates one snapshot file (magic,
// length, CRC over the whole body, decodable content) and decodes its
// profile section, which is nil when there is none or it was written
// under another wire version.
func loadSnapshot(fsys FS, name string, logf func(string, ...any)) (*snapshotBody, *sketch.DatasetProfile, error) {
	size, err := fsys.Size(name)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: snapshot %s: %w", name, err)
	}
	if size < int64(snapshotHeaderSize) || size > int64(snapshotHeaderSize)+maxRecordPayload {
		return nil, nil, fmt.Errorf("durable: snapshot %s: implausible size %d", name, size)
	}
	rc, err := fsys.Open(name)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: opening snapshot %s: %w", name, err)
	}
	defer rc.Close()
	file := make([]byte, size)
	if _, err := io.ReadFull(rc, file); err != nil {
		return nil, nil, fmt.Errorf("durable: snapshot %s: short read: %w", name, err)
	}
	body, err := parseSnapshot(file)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: snapshot %s: %w", name, err)
	}
	if body.Profile == nil {
		return body, nil, nil
	}
	p, err := sketch.LoadProfile(bytes.NewReader(body.Profile))
	switch {
	case errors.Is(err, sketch.ErrProfileVersion):
		logf("durable: snapshot %s: keeping its rows, re-sketching them: %v", name, err)
	case err != nil:
		return nil, nil, fmt.Errorf("durable: snapshot %s: loading profile: %w", name, err)
	}
	return body, p, nil
}

// parseSnapshot validates a whole snapshot file — magic, a body length
// that is the file's, the CRC — and decodes its body. Only the
// canonical encoding is accepted: a profile flag other than 0 or 1, or
// bytes past the end of the last section, are errors. What it returns
// aliases file.
func parseSnapshot(file []byte) (*snapshotBody, error) {
	if len(file) < snapshotHeaderSize || string(file[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("durable: bad snapshot magic")
	}
	c := &cursor{b: file[len(snapMagic):snapshotHeaderSize]}
	bodyLen, sum := c.u64("snapshot length"), c.u32("snapshot checksum")
	body := file[snapshotHeaderSize:]
	if bodyLen != uint64(len(body)) {
		return nil, fmt.Errorf("durable: snapshot length %d, %d bytes follow the header", bodyLen, len(body))
	}
	if crc32.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("durable: snapshot checksum mismatch")
	}
	c = &cursor{b: body}
	b := &snapshotBody{}
	b.Seq = c.u64("seq")
	b.BaseRows = int(c.u64("base rows"))
	b.Cols = c.strs("column name")
	start := c.off + 4 // past the row count
	b.Records = c.rows("snapshot row")
	if c.err != nil {
		return nil, c.err
	}
	b.Rows.addBlock(len(b.Records), body[start:c.off:c.off])
	if c.off >= len(body) {
		return nil, fmt.Errorf("durable: snapshot missing profile flag")
	}
	flag := body[c.off]
	c.off++
	switch flag {
	case 0:
	case 1:
		plen := c.u64("profile length")
		if c.err != nil {
			return nil, c.err
		}
		if uint64(len(body)-c.off) < plen {
			return nil, fmt.Errorf("durable: short snapshot profile section")
		}
		b.Profile = body[c.off : c.off+int(plen) : c.off+int(plen)]
		c.off += int(plen)
	default:
		return nil, fmt.Errorf("durable: snapshot profile flag %d", flag)
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("durable: %d trailing bytes after snapshot", len(body)-c.off)
	}
	return b, nil
}

// pruneSnapshots removes all but the newest snapshotsKept snapshots,
// plus any stale temp files from interrupted checkpoints. It returns
// the seq of the oldest snapshot kept, the fallback recovery loads
// when every newer one is corrupted: the WAL must still hold each
// record after it, so a checkpoint retires segments only through it.
// ok is false, and no segment may go, while fewer than snapshotsKept
// snapshots exist or the directory cannot be listed.
func pruneSnapshots(fsys FS, dir string) (fallback uint64, ok bool) {
	names, err := fsys.ReadDir(dir)
	if err == nil {
		for _, name := range names {
			if strings.HasSuffix(name, ".snap.tmp") {
				_ = fsys.Remove(join(dir, name))
			}
		}
	}
	snaps, err := listSnapshots(fsys, dir)
	if err != nil || len(snaps) < snapshotsKept {
		return 0, false
	}
	if len(snaps) > snapshotsKept {
		for _, s := range snaps[snapshotsKept:] {
			_ = fsys.Remove(s.name)
		}
		_ = fsys.SyncDir(dir)
	}
	return snaps[snapshotsKept-1].seq, true
}
