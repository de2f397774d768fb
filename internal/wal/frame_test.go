package wal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAppendDeferredAllocatesFrameOnce(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Policy: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	data, _ := json.Marshal(map[string]string{"payload": strings.Repeat("x", 1024)})
	ops := []Op{{Kind: "log", Data: data}, {Kind: "vdb", Data: data}}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := w.AppendDeferred("exec", 42, 7, ops); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("AppendDeferred allocated %.0f times per entry; want 1 (the frame)", allocs)
	}
}

// failSegment closes the writer's active segment file underneath it, so
// the next write or fsync on it fails, and returns the file's path.
func failSegment(t *testing.T, w *Writer) string {
	t.Helper()
	path := w.f.Name()
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// recoverSegment gives the writer a working handle on the same file, as a
// device that comes back after an error would.
func recoverSegment(t *testing.T, w *Writer, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w.f = f
}

// assertPoisoned checks that every append and sync after a failure
// returns an error.
func assertPoisoned(t *testing.T, w *Writer) {
	t.Helper()
	data, _ := json.Marshal("after")
	if _, _, err := w.AppendDeferred("after", 1, 1, []Op{{Kind: "t", Data: data}}); err == nil {
		t.Error("AppendDeferred succeeded on a failed writer")
	}
	if _, err := w.Append("after", 1, 1, []Op{{Kind: "t", Data: data}}); err == nil {
		t.Error("Append succeeded on a failed writer")
	}
	if err := w.SyncTo(1); err == nil {
		t.Error("SyncTo succeeded on a failed writer")
	}
}

// assertReplays checks that the log replays exactly entries 1..n, with no
// corruption.
func assertReplays(t *testing.T, dir string, n int) {
	t.Helper()
	var got []uint64
	_, _, err := Replay(dir, 0, func(e Entry) error {
		got = append(got, e.Seq)
		return nil
	})
	if err != nil {
		t.Fatalf("replay after a failed write: %v (ErrCorrupt: %v)", err, errors.Is(err, ErrCorrupt))
	}
	if len(got) != n || (n > 0 && got[n-1] != uint64(n)) {
		t.Fatalf("replayed seqs %v, want 1..%d", got, n)
	}
}

func TestPartialWritePoisonsWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, "ok", 3)
	// The device takes the first bytes of the next frame, then fails.
	path := failSegment(t, w)
	torn, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Write([]byte{0, 0, 0, 40, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	torn.Close()
	data, _ := json.Marshal("lost")
	if _, _, err := w.AppendDeferred("lost", 4, 4, []Op{{Kind: "t", Data: data}}); err == nil {
		t.Fatal("AppendDeferred on a failed segment succeeded")
	}
	// The device recovers; the writer must not append after the torn frame.
	recoverSegment(t, w, path)
	assertPoisoned(t, w)
	w.Close()
	assertReplays(t, dir, 3)
}

func TestFailedRotationPoisonsWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNone, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, "ok", 2)
	// A directory squatting on the next segment's name makes its
	// creation fail; once it is gone, creation would succeed again.
	block := filepath.Join(dir, segName(w.Seq()+1))
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal("lost")
	if _, _, err := w.AppendDeferred("lost", 3, 3, []Op{{Kind: "t", Data: data}}); err == nil {
		t.Fatal("AppendDeferred succeeded although rotation failed")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	assertPoisoned(t, w)
	w.Close()
	assertReplays(t, dir, 2)
}

func TestFailedFsyncPoisonsWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, "ok", 2)
	data, _ := json.Marshal("pending")
	seq, _, err := w.AppendDeferred("pending", 3, 3, []Op{{Kind: "t", Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	path := failSegment(t, w)
	if err := w.SyncTo(seq); err == nil {
		t.Fatal("fsync on a failed segment succeeded")
	}
	// A later fsync on the recovered device would succeed, but the pages
	// the failed one covered may already be gone: the commit must never
	// be acknowledged.
	recoverSegment(t, w, path)
	if err := w.SyncTo(seq); err == nil {
		t.Error("SyncTo acknowledged a commit whose fsync failed")
	}
	assertPoisoned(t, w)
	w.Close()
	assertReplays(t, dir, 3)
}
