package persist_test

import (
	"bytes"
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/wire"
)

// dirFiles returns every file in dir by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// segmentFormats returns the format version each WAL segment in dir
// names in its header.
func segmentFormats(t *testing.T, dir string) []uint32 {
	t.Helper()
	names, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var formats []uint32
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || len(b) < 8 {
			t.Fatalf("segment %s: %d bytes, %v", name, len(b), err)
		}
		formats = append(formats, binary.BigEndian.Uint32(b[4:8]))
	}
	return formats
}

// checkpointNames lists dir's checkpoint files.
func checkpointNames(files map[string][]byte) []string {
	var names []string
	for name := range files {
		if strings.HasPrefix(name, "checkpoint-") {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// newLegacyA is a controller for the legacy queue state's service "a".
func newLegacyA() *core.Controller {
	return core.NewController(&harness.KVApp{ServiceName: "a", Mirrors: []string{"b", "c"}}, transport.NewBus(), core.DefaultConfig())
}

// checkUpgraded fails unless dir holds one checkpoint, in format 2, and
// only version-2 segments.
func checkUpgraded(t *testing.T, dir string) {
	t.Helper()
	files := dirFiles(t, dir)
	names := checkpointNames(files)
	if len(names) != 1 || !bytes.HasPrefix(files[names[0]], []byte(`{"format":2,`)) {
		t.Fatalf("checkpoints %v, want one whose format is 2", names)
	}
	if formats := segmentFormats(t, dir); len(formats) == 0 || slices.Contains(formats, wal.FormatJSON) {
		t.Fatalf("segment formats %v, want version 2 alone", formats)
	}
}

// TestUpgradeLoadWritesNothing: Load reads a version-1 directory — the
// legacy queue state and the own-tombstone fixture — and leaves every
// file in it byte for byte as it was, as an auditor reading a live
// service's directory needs.
func TestUpgradeLoadWritesNothing(t *testing.T) {
	for name, dir := range map[string]string{
		"legacy queue":  writeLegacyQueueState(t, legacyQueueCheckpoint),
		"own tombstone": writeOwnTombstoneState(t),
	} {
		before := dirFiles(t, dir)
		c := newLegacyA()
		if name == "own tombstone" {
			c = core.NewController(clearApp{}, transport.NewBus(), core.DefaultConfig())
		}
		if err := persist.Load(c, dir); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := dirFiles(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Fatalf("%s: Load changed the directory: %d files before, %d after", name, len(before), len(after))
		}
	}
}

// TestUpgradeRunsOnce: one Recover of a version-1 directory leaves a
// format-2 checkpoint and version-2 segments alone, holding the state it
// loaded. A second Recover finds nothing to upgrade: it writes no
// checkpoint and deletes nothing, and recovers the same queue.
func TestUpgradeRunsOnce(t *testing.T) {
	dir := writeLegacyQueueState(t, legacyQueueCheckpoint)
	opts := wal.Options{Policy: wal.FsyncEveryCommit}
	a := newLegacyA()
	w, err := persist.Recover(a, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkUpgraded(t, dir)
	// One commit after the upgrade, so that a second upgrade's checkpoint
	// would cover a later sequence and take a new name.
	if err := a.Drop("a-dlv-12"); err != nil {
		t.Fatal(err)
	}
	want := queued(a.Pending())
	a.DetachWAL()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)

	again := newLegacyA()
	w2, err := persist.Recover(again, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if after := dirFiles(t, dir); !slices.Equal(checkpointNames(after), checkpointNames(before)) || len(after) != len(before) {
		t.Fatalf("the second Recover changed the directory: checkpoints %v and %d files before, %v and %d after",
			checkpointNames(before), len(before), checkpointNames(after), len(after))
	}
	if got := queued(again.Pending()); len(want) != 2 || !slices.Equal(got, want) {
		t.Fatalf("second recovery queued %v, want %v", got, want)
	}
}

// TestUpgradeFinishesAfterCrash: a crash after the upgrade's checkpoint is
// written but before the segments it covers are deleted leaves a
// format-2 checkpoint over version-1 segments. The next Recover loads the
// same state from it and finishes the upgrade.
func TestUpgradeFinishesAfterCrash(t *testing.T) {
	dir := writeLegacyQueueState(t, legacyQueueCheckpoint)
	a := newLegacyA()
	if err := persist.Load(a, dir); err != nil {
		t.Fatal(err)
	}
	want := queued(a.Pending())
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	a.AttachWAL(w)
	if _, err := persist.WriteCheckpoint(a, w, dir); err != nil {
		t.Fatal(err)
	}
	a.DetachWAL()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if formats := segmentFormats(t, dir); !slices.Contains(formats, wal.FormatJSON) {
		t.Fatalf("segment formats %v: the crash should have left the version-1 segment", formats)
	}

	again := newLegacyA()
	w2, err := persist.Recover(again, dir, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	checkUpgraded(t, dir)
	if got := queued(again.Pending()); !slices.Equal(got, want) {
		t.Fatalf("recovered queue %v, want %v", got, want)
	}
}

// TestUpgradeNotRunOnVersion2: Recover of an empty directory, and of a
// version-2 directory without a checkpoint, writes no checkpoint — a
// service's first boot and every restart before its first checkpoint
// cost what they did before the format field.
func TestUpgradeNotRunOnVersion2(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a")
	for i := 0; i < 2; i++ {
		bus := transport.NewBus()
		a := core.NewController(&harness.KVApp{ServiceName: "a"}, bus, core.DefaultConfig())
		bus.Register("a", a)
		w, err := persist.Recover(a, dir, wal.Options{Policy: wal.FsyncEveryCommit})
		if err != nil {
			t.Fatal(err)
		}
		if names := checkpointNames(dirFiles(t, dir)); len(names) != 0 {
			t.Fatalf("recovery %d wrote checkpoints %v", i+1, names)
		}
		if resp, err := bus.Call("", "a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "v")); err != nil || !resp.OK() {
			t.Fatalf("put: %v %+v", err, resp)
		}
		a.DetachWAL()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpgradeRefusesFutureFormat: a checkpoint in a format newer than this
// binary reads is refused by LatestCheckpoint, and so by Recover, with an
// error naming the format.
func TestUpgradeRefusesFutureFormat(t *testing.T) {
	dir := t.TempDir()
	future := strings.Replace(legacyQueueCheckpoint, `{"up_to_seq":9,`, `{"format":3,"up_to_seq":9,`, 1)
	if err := os.WriteFile(filepath.Join(dir, persist.CheckpointName(9)), []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.LatestCheckpoint(dir); err == nil || !strings.Contains(err.Error(), "unsupported format 3") {
		t.Fatalf("format-3 checkpoint: err = %v, want a refusal naming the format", err)
	}
	if _, err := persist.Recover(newLegacyA(), dir, wal.Options{}); err == nil || !strings.Contains(err.Error(), "unsupported format 3") {
		t.Fatalf("Recover of a format-3 checkpoint: err = %v, want a refusal naming the format", err)
	}
}
