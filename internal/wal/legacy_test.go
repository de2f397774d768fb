package wal_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"aire/internal/wal"
	"aire/internal/wal/waltest"
)

// TestOpenNeverAppendsToJSONSegment: Open on a log whose tail segment is
// version 1 cuts a torn tail off it, leaves it otherwise as it was, and
// starts a version-2 segment after it, so every later entry is binary and
// no segment mixes formats; an entry-less version-1 tail is replaced by
// the version-2 segment that takes its name.
func TestOpenNeverAppendsToJSONSegment(t *testing.T) {
	for _, n := range []int{3, 0} {
		dir := t.TempDir()
		var entries []wal.Entry
		for i := 1; i <= n; i++ {
			entries = append(entries, wal.Entry{Seq: uint64(i), Kind: "exec", Clock: int64(i), Ops: []wal.Op{{Kind: "t", Data: []byte(`{"i":1}`)}}})
		}
		if err := waltest.WriteJSONSegment(dir, 1, entries); err != nil {
			t.Fatal(err)
		}
		v1 := filepath.Join(dir, "wal-0000000000000001.seg")
		intact, _ := os.ReadFile(v1)
		torn := append(append([]byte(nil), intact...), 0, 0, 0, 9) // a frame cut short
		if err := os.WriteFile(v1, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		if w.Seq() != uint64(n) {
			t.Fatalf("%d entries: Open resumed at seq %d", n, w.Seq())
		}
		if _, err := w.Append("exec", 9, 9, []wal.Op{{Kind: "t", Data: []byte{1}}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var formats []uint32
		if _, _, err := wal.Replay(dir, 0, func(e wal.Entry) error {
			formats = append(formats, e.Format)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var want []uint32
		for range n {
			want = append(want, wal.FormatJSON)
		}
		want = append(want, wal.FormatBinary)
		segs, _ := wal.Segments(dir)
		if !slices.Equal(formats, want) || len(segs) != min(n, 1)+1 {
			t.Fatalf("%d version-1 entries, one append: formats %v in segments %v, want %v", n, formats, segs, want)
		}
		head, _ := os.ReadFile(filepath.Join(dir, segs[0]))
		if n > 0 && !slices.Equal(head, intact) {
			t.Fatalf("the version-1 segment was not cut back to its intact entries")
		}
		last, _ := os.ReadFile(filepath.Join(dir, segs[len(segs)-1]))
		if v := binary.BigEndian.Uint32(last[4:8]); v != wal.FormatBinary {
			t.Fatalf("the new segment's header names version %d", v)
		}
	}
}
