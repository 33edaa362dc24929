package durable

import (
	"errors"
	"io"
	"testing"
)

// readAll opens name and returns its full content, failing the test on
// any error.
func readAll(t *testing.T, fsys FS, name string) []byte {
	t.Helper()
	rc, err := fsys.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return b
}

// TestErrFSCrashLosesUnsyncedBytes is the core durability model: bytes
// written but not fsynced vanish at a crash; synced bytes survive.
func TestErrFSCrashLosesUnsyncedBytes(t *testing.T) {
	fs := NewErrFS()
	f, err := fs.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if _, err := fs.Open("d/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open during crash = %v, want ErrCrashed", err)
	}
	fs.Restart()
	if got := string(readAll(t, fs, "d/a")); got != "durable" {
		t.Fatalf("after crash: %q, want synced prefix %q", got, "durable")
	}
}

// TestErrFSCreateWithoutSyncDirVanishes: a created-and-fsynced file
// whose directory entry was never fsynced does not survive a crash.
func TestErrFSCreateWithoutSyncDirVanishes(t *testing.T) {
	fs := NewErrFS()
	f, _ := fs.Create("d/a")
	_, _ = f.Write([]byte("x"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// no SyncDir
	fs.Crash()
	fs.Restart()
	if _, err := fs.Open("d/a"); !IsNotExist(err) {
		t.Fatalf("un-dir-synced file after crash: err=%v, want not-exist", err)
	}
}

// TestErrFSRenameRevertsWithoutSyncDir: the snapshot-publish pattern.
// A rename not followed by SyncDir reverts at a crash; with SyncDir it
// sticks and the old name is gone.
func TestErrFSRenameRevertsWithoutSyncDir(t *testing.T) {
	for _, synced := range []bool{false, true} {
		fs := NewErrFS()
		f, _ := fs.Create("d/tmp")
		_, _ = f.Write([]byte("snap"))
		_ = f.Sync()
		_ = fs.SyncDir("d") // tmp entry durable
		if err := fs.Rename("d/tmp", "d/final"); err != nil {
			t.Fatal(err)
		}
		if synced {
			_ = fs.SyncDir("d")
		}
		fs.Crash()
		fs.Restart()
		_, errFinal := fs.Open("d/final")
		_, errTmp := fs.Open("d/tmp")
		if synced {
			if errFinal != nil || !IsNotExist(errTmp) {
				t.Fatalf("synced rename: final=%v tmp=%v", errFinal, errTmp)
			}
		} else {
			if !IsNotExist(errFinal) || errTmp != nil {
				t.Fatalf("unsynced rename should revert: final=%v tmp=%v", errFinal, errTmp)
			}
		}
	}
}

// TestErrFSRemoveReappearsWithoutSyncDir: removing a durable file
// without fsyncing the directory brings it back after a crash.
func TestErrFSRemoveReappearsWithoutSyncDir(t *testing.T) {
	fs := NewErrFS()
	f, _ := fs.Create("d/a")
	_, _ = f.Write([]byte("x"))
	_ = f.Sync()
	_ = fs.SyncDir("d")
	if err := fs.Remove("d/a"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Restart()
	if _, err := fs.Open("d/a"); err != nil {
		t.Fatalf("removed-but-not-dir-synced file should reappear: %v", err)
	}
}

// TestErrFSCrashMidWriteTearsRecord: a crash during Write applies only
// a prefix — the torn-tail shape WAL recovery must repair.
func TestErrFSCrashMidWriteTearsRecord(t *testing.T) {
	fs := NewErrFS()
	f, _ := fs.Create("d/a")
	_ = f.Sync()
	_ = fs.SyncDir("d")
	fs.CrashAt(fs.Ops() + 1)
	if _, err := f.Write([]byte("0123456789")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write at crash point = %v, want ErrCrashed", err)
	}
	fs.Restart()
	got := readAll(t, fs, "d/a")
	if len(got) >= 10 {
		t.Fatalf("torn write should persist at most a prefix, got %d bytes", len(got))
	}
}

// TestErrFSInjectedFaults: FailSyncAt / FailRenameAt / FailWriteAt
// return errors without crashing, and clear after firing once.
func TestErrFSInjectedFaults(t *testing.T) {
	fs := NewErrFS()
	f, _ := fs.Create("d/a")

	fs.FailWriteAt(1)
	if n, err := f.Write([]byte("abcd")); !errors.Is(err, ErrInjected) || n != 2 {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write after injected fault: %v", err)
	}

	fs.FailSyncAt(1)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync fault = %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after fault: %v", err)
	}

	fs.FailRenameAt(1)
	if err := fs.Rename("d/a", "d/b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename fault = %v", err)
	}
	if err := fs.Rename("d/a", "d/b"); err != nil {
		t.Fatalf("rename after fault: %v", err)
	}
}

// TestErrFSTruncate cuts live data and clamps the synced watermark.
func TestErrFSTruncate(t *testing.T) {
	fs := NewErrFS()
	f, _ := fs.Create("d/a")
	_, _ = f.Write([]byte("0123456789"))
	_ = f.Sync()
	_ = fs.SyncDir("d")
	if err := fs.Truncate("d/a", 4); err != nil {
		t.Fatal(err)
	}
	if sz, _ := fs.Size("d/a"); sz != 4 {
		t.Fatalf("size after truncate = %d", sz)
	}
	fs.Crash()
	fs.Restart()
	if got := string(readAll(t, fs, "d/a")); got != "0123" {
		t.Fatalf("truncated file after crash = %q", got)
	}
}
