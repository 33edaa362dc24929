// Package durable makes live ingest survive crashes (DESIGN.md §8.4, §8.6).
// Three cooperating pieces give the serving path the classic
// durability trio:
//
//   - a write-ahead log (wal.go): every applied ingest batch is
//     appended as a CRC32C-framed, length-prefixed record to segment
//     files before the batch is acknowledged, under a configurable
//     fsync policy (always / interval / off);
//
//   - checkpointed snapshots (snapshot.go): a rows- or bytes-triggered
//     checkpoint writes an atomic snapshot (temp file + fsync +
//     rename + directory fsync) of the frame's appended rows plus the
//     serialized sketch store, after which the WAL segments the snapshot
//     covers are deleted;
//
//   - startup recovery (manager.go): load the newest valid snapshot,
//     replay the WAL tail through Engine.Ingest, truncate-and-warn on
//     a torn final record, and refuse to start only on mid-log
//     corruption (unless running permissively).
//
// All file I/O goes through the FS interface below so the same code
// runs against the real filesystem in production and against the
// fault-injection ErrFS (errfs.go) in tests, where simulated crashes
// at every write boundary prove the recovery invariants instead of
// hoping for them.
package durable

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// File is a writable log or snapshot file. Sync must not return until
// previously written bytes are durable (whatever that means for the
// implementation — fsync for the OS, promotion to the durable image
// for ErrFS).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the small filesystem surface the WAL and snapshot code is
// written against. Paths are plain slash-joined strings; directories
// are created with MkdirAll and made durable with SyncDir (which the
// POSIX crash model requires after creating, renaming, or removing
// entries).
type FS interface {
	MkdirAll(dir string) error
	// ReadDir returns the base names of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	Open(name string) (io.ReadCloser, error)
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	Rename(oldName, newName string) error
	Remove(name string) error
	// Truncate cuts name down to size bytes (torn-tail repair).
	Truncate(name string, size int64) error
	// Size returns name's current length in bytes.
	Size(name string) (int64, error)
	// SyncDir makes dir's entry list durable.
	SyncDir(dir string) error
}

// OS is the production FS backed by the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) Rename(oldName, newName string) error { return os.Rename(oldName, newName) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) Size(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// SyncDir fsyncs the directory so renames and segment creations are
// durable. Filesystems that cannot fsync a directory (some network and
// overlay mounts return EINVAL or ENOTSUP) are tolerated: the rename
// itself is still atomic there, we just lose the strict ordering
// guarantee the real disk would give.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) ||
			errors.Is(err, fs.ErrInvalid) {
			return nil
		}
		return err
	}
	return nil
}

// join builds FS paths; kept as a helper so durable code never calls
// filepath directly with a mix of separators.
func join(dir, name string) string { return filepath.Join(dir, name) }
