package durable

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"

	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// A snapshot is one atomic checkpoint of everything ingested since the
// process's base dataset was loaded: the appended rows (rendered back
// to the same string-cell form ingest accepts, so replaying them
// through AppendRows reproduces the frame bit-identically) and, when
// the engine carries one, the sketch store in its Save form. The
// file name carries the WAL sequence number of the last batch the
// snapshot covers; recovery loads the newest valid snapshot and
// replays only WAL records after that sequence.
//
// File layout: 8B magic "FSNAPSH1" | u64 body length | u32 CRC32C(body)
// | body. Body: u64 seq | u64 baseRows | columns | rows | u8
// hasProfile | [u64 profile length | profile as sketch.Save wrote it].
// Writes are atomic: temp file + fsync + rename + directory fsync.
//
// The profile section is versioned by the sketch package, not here. A
// snapshot whose section was written under an older wire version (its
// dots follow a direction stream this binary no longer draws) is still
// a valid snapshot of the rows: loadSnapshot returns it with a nil
// Profile, and recovery replays the rows through Ingest.
type snapshotData struct {
	Seq      uint64
	BaseRows int
	Cols     []string
	Records  [][]string
	Profile  *sketch.DatasetProfile
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

// writeSnapshot persists data atomically and returns the final path.
func writeSnapshot(fsys FS, dir string, data snapshotData) (string, error) {
	body := appendU64(nil, data.Seq)
	body = appendU64(body, uint64(data.BaseRows))
	body = appendU32(body, uint32(len(data.Cols)))
	for _, c := range data.Cols {
		body = appendString(body, c)
	}
	body = appendRows(body, data.Records)
	if data.Profile != nil {
		body = append(body, 1)
		var pbuf bytes.Buffer
		if err := data.Profile.Save(&pbuf); err != nil {
			return "", fmt.Errorf("durable: serializing profile for snapshot: %w", err)
		}
		body = appendU64(body, uint64(pbuf.Len()))
		body = append(body, pbuf.Bytes()...)
	} else {
		body = append(body, 0)
	}

	final := join(dir, snapshotName(data.Seq))
	tmp := final + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("durable: creating snapshot temp file: %w", err)
	}
	header := append([]byte(snapMagic), appendU32(appendU64(nil, uint64(len(body))), crc32.Checksum(body, crcTable))...)
	if _, err := f.Write(header); err == nil {
		_, err = f.Write(body)
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
// length, CRC over the whole body, decodable content).
func loadSnapshot(fsys FS, name string, logf func(string, ...any)) (*snapshotData, error) {
	rc, err := fsys.Open(name)
	if err != nil {
		return nil, fmt.Errorf("durable: opening snapshot %s: %w", name, err)
	}
	defer rc.Close()
	header := make([]byte, len(snapMagic)+12)
	if _, err := io.ReadFull(rc, header); err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: short header: %w", name, err)
	}
	if string(header[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("durable: snapshot %s: bad magic", name)
	}
	c := &cursor{b: header[len(snapMagic):]}
	bodyLen := c.u64("snapshot length")
	sum := c.u32("snapshot checksum")
	if bodyLen > maxRecordPayload {
		return nil, fmt.Errorf("durable: snapshot %s: implausible length %d", name, bodyLen)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(rc, body); err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: short body: %w", name, err)
	}
	if crc32.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("durable: snapshot %s: checksum mismatch", name)
	}
	bc := &cursor{b: body}
	data := &snapshotData{}
	data.Seq = bc.u64("seq")
	data.BaseRows = int(bc.u64("base rows"))
	ncols := int(bc.u32("column count"))
	if bc.err == nil && (ncols < 0 || ncols > (len(bc.b)-bc.off)/4+1) {
		bc.fail("column count")
	}
	for i := 0; i < ncols && bc.err == nil; i++ {
		data.Cols = append(data.Cols, bc.str("column name"))
	}
	data.Records = bc.rows("snapshot row")
	if bc.err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", name, bc.err)
	}
	if bc.off >= len(body) {
		return nil, fmt.Errorf("durable: snapshot %s: missing profile flag", name)
	}
	hasProfile := body[bc.off] == 1
	bc.off++
	if hasProfile {
		plen := bc.u64("profile length")
		if bc.err != nil {
			return nil, fmt.Errorf("durable: snapshot %s: %w", name, bc.err)
		}
		if uint64(len(body)-bc.off) < plen {
			return nil, fmt.Errorf("durable: snapshot %s: short profile section", name)
		}
		p, err := sketch.LoadProfile(bytes.NewReader(body[bc.off : bc.off+int(plen)]))
		switch {
		case errors.Is(err, sketch.ErrProfileVersion):
			logf("durable: snapshot %s: keeping its rows, re-sketching them: %v", name, err)
		case err != nil:
			return nil, fmt.Errorf("durable: snapshot %s: loading profile: %w", name, err)
		}
		data.Profile = p
	}
	return data, nil
}

// pruneSnapshots removes all but the newest keep snapshots (older ones
// exist only as fallbacks against a corrupted newest snapshot) plus
// any stale temp files from interrupted checkpoints.
func pruneSnapshots(fsys FS, dir string, keep int) {
	if keep < 1 {
		keep = 1
	}
	names, err := fsys.ReadDir(dir)
	if err == nil {
		for _, name := range names {
			if strings.HasSuffix(name, ".snap.tmp") {
				_ = fsys.Remove(join(dir, name))
			}
		}
	}
	snaps, err := listSnapshots(fsys, dir)
	if err != nil || len(snaps) <= keep {
		return
	}
	for _, s := range snaps[keep:] {
		_ = fsys.Remove(s.name)
	}
	_ = fsys.SyncDir(dir)
}

// appendedRecords renders the frame's rows past baseRows back into the
// string-cell form ingest accepts. Numeric cells use %g (which
// round-trips float64 exactly), missing cells become the empty string;
// because every one of these rows originally entered through
// AppendRows under the same missing-value rules, replaying the
// rendered cells reproduces the frame content bit-identically.
func appendedRecords(f *frame.Frame, baseRows int) [][]string {
	n := f.Rows() - baseRows
	if n <= 0 {
		return nil
	}
	out := make([][]string, n)
	cols := make([]frame.Column, f.Cols())
	for i := 0; i < f.Cols(); i++ {
		cols[i] = f.Column(i)
	}
	for r := 0; r < n; r++ {
		row := make([]string, len(cols))
		for ci, col := range cols {
			row[ci] = col.StringAt(baseRows + r)
		}
		out[r] = row
	}
	return out
}
