package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
)

// ErrFS is an in-memory FS with a POSIX-style crash model and fault
// injection, so WAL and snapshot code can be tested by *simulated*
// crashes at every write boundary instead of by luck.
//
// Durability model: every file is an inode holding its live bytes and
// a synced length (how much of it File.Sync has made durable), and the
// namespace exists twice — the live map (what a running process sees)
// and the durable map (what survives a crash). File.Sync promotes the
// inode's current length to durable; SyncDir promotes the directory's
// live entries (creations, renames, removals) into the durable
// namespace. Crash() therefore loses unsynced bytes, un-SyncDir'd
// renames revert, removed-but-not-dir-synced files reappear — exactly
// the failure shapes a real disk can produce.
//
// Fault injection: every mutating operation (Create, Append-create,
// Write, Sync, Rename, Remove, Truncate, SyncDir) counts as one op.
// CrashAt(n) makes the nth op crash the filesystem mid-operation — a
// crashing Write applies only a prefix of its buffer, producing a torn
// record. FailSyncAt / FailRenameAt / FailWriteAt inject plain errors
// (the op fails, the filesystem stays up), exercising the error paths
// that must not corrupt the log. After a crash every call returns
// ErrCrashed until Restart, which reconstructs the live state from the
// durable image and clears the injected faults.
type ErrFS struct {
	mu      sync.Mutex
	live    map[string]*errInode
	durable map[string]*errInode

	ops         int
	crashAt     int
	crashed     bool
	syncCalls   int
	failSyncAt  int
	renameCalls int
	failRenAt   int
	writeCalls  int
	failWriteAt int
}

type errInode struct {
	data   []byte
	synced int
}

// ErrCrashed is returned by every ErrFS operation between a simulated
// crash and Restart.
var ErrCrashed = errors.New("errfs: simulated crash")

// ErrInjected is the error returned by non-crashing injected faults
// (failed fsync, failed rename, short write).
var ErrInjected = errors.New("errfs: injected I/O error")

// NewErrFS returns an empty fault-injection filesystem with no faults
// armed.
func NewErrFS() *ErrFS {
	return &ErrFS{live: map[string]*errInode{}, durable: map[string]*errInode{}}
}

// CrashAt arms a crash at the nth mutating operation (1-based);
// 0 disarms.
func (e *ErrFS) CrashAt(n int) { e.mu.Lock(); e.crashAt = n; e.mu.Unlock() }

// Crash crashes the filesystem immediately: every operation fails with
// ErrCrashed until Restart.
func (e *ErrFS) Crash() { e.mu.Lock(); e.crashed = true; e.mu.Unlock() }

// FailSyncAt makes the nth File.Sync call from now (1-based) return
// ErrInjected without crashing; 0 disarms.
func (e *ErrFS) FailSyncAt(n int) { e.mu.Lock(); e.failSyncAt = e.syncCalls + n; e.mu.Unlock() }

// FailRenameAt makes the nth Rename call from now (1-based) return
// ErrInjected without crashing; 0 disarms.
func (e *ErrFS) FailRenameAt(n int) { e.mu.Lock(); e.failRenAt = e.renameCalls + n; e.mu.Unlock() }

// FailWriteAt makes the nth Write call from now (1-based) write only
// half its buffer and return ErrInjected (a short write); 0 disarms.
func (e *ErrFS) FailWriteAt(n int) { e.mu.Lock(); e.failWriteAt = e.writeCalls + n; e.mu.Unlock() }

// Ops returns the number of mutating operations performed so far; a
// fault-free dry run of a scenario yields the crash-point space to
// iterate.
func (e *ErrFS) Ops() int { e.mu.Lock(); defer e.mu.Unlock(); return e.ops }

// Crashed reports whether a simulated crash has happened.
func (e *ErrFS) Crashed() bool { e.mu.Lock(); defer e.mu.Unlock(); return e.crashed }

// Restart simulates the machine coming back up: the live state is
// rebuilt from the durable image (unsynced bytes gone, pending
// directory operations reverted) and all armed faults are cleared.
func (e *ErrFS) Restart() {
	e.mu.Lock()
	defer e.mu.Unlock()
	live := make(map[string]*errInode, len(e.durable))
	for name, ino := range e.durable {
		ino.data = ino.data[:ino.synced]
		live[name] = ino
	}
	e.live = live
	e.crashed = false
	e.crashAt, e.failSyncAt, e.failRenAt, e.failWriteAt = 0, 0, 0, 0
}

// step counts one mutating op and reports whether it is the armed
// crash point (marking the filesystem crashed when it is). Callers
// hold e.mu.
func (e *ErrFS) step() bool {
	e.ops++
	if e.crashAt > 0 && e.ops >= e.crashAt {
		e.crashed = true
		return true
	}
	return false
}

func (e *ErrFS) MkdirAll(string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	return nil
}

func (e *ErrFS) ReadDir(dir string) ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, ErrCrashed
	}
	var names []string
	for name := range e.live {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (e *ErrFS) Open(name string) (io.ReadCloser, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, ErrCrashed
	}
	ino, ok := e.live[name]
	if !ok {
		return nil, fmt.Errorf("errfs: open %s: %w", name, errNotExist)
	}
	// Snapshot read: later appends do not bleed into an open reader.
	return io.NopCloser(bytes.NewReader(append([]byte(nil), ino.data...))), nil
}

var errNotExist = errors.New("file does not exist")

// IsNotExist reports whether err is a missing-file error from either
// FS implementation (ErrFS's sentinel or the OS's fs.ErrNotExist).
func IsNotExist(err error) bool {
	return errors.Is(err, errNotExist) || errors.Is(err, fs.ErrNotExist)
}

func (e *ErrFS) Create(name string) (File, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, ErrCrashed
	}
	if e.step() {
		return nil, ErrCrashed
	}
	ino := &errInode{}
	e.live[name] = ino
	return &errFile{fs: e, ino: ino}, nil
}

func (e *ErrFS) Rename(oldName, newName string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	e.renameCalls++
	if e.failRenAt > 0 && e.renameCalls == e.failRenAt {
		return fmt.Errorf("errfs: rename %s: %w", oldName, ErrInjected)
	}
	if e.step() {
		return ErrCrashed
	}
	ino, ok := e.live[oldName]
	if !ok {
		return fmt.Errorf("errfs: rename %s: %w", oldName, errNotExist)
	}
	e.live[newName] = ino
	delete(e.live, oldName)
	return nil
}

func (e *ErrFS) Remove(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if e.step() {
		return ErrCrashed
	}
	if _, ok := e.live[name]; !ok {
		return fmt.Errorf("errfs: remove %s: %w", name, errNotExist)
	}
	delete(e.live, name)
	return nil
}

func (e *ErrFS) Truncate(name string, size int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if e.step() {
		return ErrCrashed
	}
	ino, ok := e.live[name]
	if !ok {
		return fmt.Errorf("errfs: truncate %s: %w", name, errNotExist)
	}
	if size < 0 || size > int64(len(ino.data)) {
		return fmt.Errorf("errfs: truncate %s to %d: out of range", name, size)
	}
	ino.data = ino.data[:size]
	if ino.synced > int(size) {
		ino.synced = int(size)
	}
	return nil
}

func (e *ErrFS) Size(name string) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return 0, ErrCrashed
	}
	ino, ok := e.live[name]
	if !ok {
		return 0, fmt.Errorf("errfs: size %s: %w", name, errNotExist)
	}
	return int64(len(ino.data)), nil
}

// SyncDir promotes dir's live entries into the durable namespace:
// creations and renames become crash-safe, removals become permanent.
func (e *ErrFS) SyncDir(dir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if e.step() {
		return ErrCrashed
	}
	for name := range e.durable {
		if filepath.Dir(name) != dir {
			continue
		}
		if _, ok := e.live[name]; !ok {
			delete(e.durable, name)
		}
	}
	for name, ino := range e.live {
		if filepath.Dir(name) == dir {
			e.durable[name] = ino
		}
	}
	return nil
}

type errFile struct {
	fs     *ErrFS
	ino    *errInode
	closed bool
}

func (f *errFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if f.closed {
		return 0, errors.New("errfs: write on closed file")
	}
	f.fs.writeCalls++
	if f.fs.failWriteAt > 0 && f.fs.writeCalls == f.fs.failWriteAt {
		n := len(p) / 2
		f.ino.data = append(f.ino.data, p[:n]...)
		return n, fmt.Errorf("errfs: short write: %w", ErrInjected)
	}
	if f.fs.step() {
		// A crash mid-write applies a torn prefix: the classic
		// half-record tail recovery must cope with.
		f.ino.data = append(f.ino.data, p[:len(p)/2]...)
		return 0, ErrCrashed
	}
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (f *errFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return ErrCrashed
	}
	f.fs.syncCalls++
	if f.fs.failSyncAt > 0 && f.fs.syncCalls == f.fs.failSyncAt {
		return fmt.Errorf("errfs: fsync: %w", ErrInjected)
	}
	if f.fs.step() {
		return ErrCrashed
	}
	f.ino.synced = len(f.ino.data)
	return nil
}

func (f *errFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	if f.fs.crashed {
		return ErrCrashed
	}
	return nil
}
