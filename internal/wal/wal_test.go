package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustAppend(t *testing.T, w *Writer, kind string, n int) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		data, _ := json.Marshal(map[string]int{"i": i})
		seq, err := w.Append(kind, int64(i), int64(i), []Op{{Kind: "test", Data: data}})
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		last = seq
	}
	return last
}

func collect(t *testing.T, dir string, from uint64) (entries []Entry, last uint64, torn bool) {
	t.Helper()
	last, torn, err := Replay(dir, from, func(e Entry) error {
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return entries, last, torn
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, "exec", 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, last, torn := collect(t, dir, 0)
	if len(entries) != 10 || last != 10 || torn {
		t.Fatalf("got %d entries last=%d torn=%v", len(entries), last, torn)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) || e.Kind != "exec" || len(e.Ops) != 1 {
			t.Fatalf("entry %d malformed: %+v", i, e)
		}
	}
	// fromSeq skips the prefix.
	tail, _, _ := collect(t, dir, 7)
	if len(tail) != 3 || tail[0].Seq != 8 {
		t.Fatalf("fromSeq replay wrong: %+v", tail)
	}
}

func TestReopenResumesSeq(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{})
	mustAppend(t, w, "a", 5)
	w.Close()
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Seq() != 5 {
		t.Fatalf("resumed seq = %d, want 5", w2.Seq())
	}
	mustAppend(t, w2, "b", 3)
	w2.Close()
	entries, last, _ := collect(t, dir, 0)
	if last != 8 || len(entries) != 8 {
		t.Fatalf("last=%d n=%d", last, len(entries))
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{SegmentBytes: 256})
	mustAppend(t, w, "x", 40)
	w.Close()
	names, _ := Segments(dir)
	if len(names) < 3 {
		t.Fatalf("expected rotation, got segments %v", names)
	}
	entries, last, torn := collect(t, dir, 0)
	if len(entries) != 40 || last != 40 || torn {
		t.Fatalf("post-rotation replay: n=%d last=%d torn=%v", len(entries), last, torn)
	}

	// Truncate to a checkpoint at seq 20: segments fully below the next
	// segment's first-seq go away, replay from 20 still works.
	removed, err := Truncate(dir, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("expected segment removal")
	}
	tail, last, _ := collect(t, dir, 20)
	if last != 40 {
		t.Fatalf("last=%d after truncate", last)
	}
	for _, e := range tail {
		if e.Seq <= 20 {
			t.Fatalf("replayed pre-checkpoint entry %d", e.Seq)
		}
	}
	if tail[0].Seq != 21 {
		t.Fatalf("first replayed = %d, want 21", tail[0].Seq)
	}

	// Reopen after truncation must still resume.
	w2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Seq() != 40 {
		t.Fatalf("seq after reopen = %d", w2.Seq())
	}
	w2.Close()
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{})
	mustAppend(t, w, "x", 6)
	w.Close()
	names, _ := Segments(dir)
	path := filepath.Join(dir, names[len(names)-1])
	data, _ := os.ReadFile(path)
	// Chop mid-way through the final record's payload.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	entries, last, torn := collect(t, dir, 0)
	if !torn {
		t.Fatal("expected torn tail")
	}
	if last != 5 || len(entries) != 5 {
		t.Fatalf("torn replay: n=%d last=%d", len(entries), last)
	}
	// Open truncates the torn tail and appends cleanly after it.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Seq() != 5 {
		t.Fatalf("seq after torn reopen = %d", w2.Seq())
	}
	mustAppend(t, w2, "y", 1)
	w2.Close()
	entries, last, torn = collect(t, dir, 0)
	if torn || last != 6 || len(entries) != 6 {
		t.Fatalf("after repair: n=%d last=%d torn=%v", len(entries), last, torn)
	}
}

func TestCrashLoseUnderFsyncPolicies(t *testing.T) {
	t.Run("every", func(t *testing.T) {
		dir := t.TempDir()
		w, _ := Open(dir, Options{Policy: FsyncEveryCommit})
		mustAppend(t, w, "x", 7)
		lost, err := w.CrashLose()
		if err != nil {
			t.Fatal(err)
		}
		if lost != 0 {
			t.Fatalf("fsync=every lost %d bytes", lost)
		}
		_, last, _ := collect(t, dir, 0)
		if last != 7 {
			t.Fatalf("last=%d, want 7", last)
		}
	})
	t.Run("none", func(t *testing.T) {
		dir := t.TempDir()
		w, _ := Open(dir, Options{Policy: FsyncNone})
		mustAppend(t, w, "x", 7)
		lost, err := w.CrashLose()
		if err != nil {
			t.Fatal(err)
		}
		if lost == 0 {
			t.Fatal("fsync=none power loss lost nothing")
		}
		entries, last, torn := collect(t, dir, 0)
		if len(entries) != 0 || last != 0 || torn {
			t.Fatalf("fsync=none survived: n=%d last=%d torn=%v", len(entries), last, torn)
		}
		// The directory must still be reopenable.
		w2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		w2.Close()
	})
	t.Run("interval", func(t *testing.T) {
		dir := t.TempDir()
		w, _ := Open(dir, Options{Policy: FsyncInterval, Interval: 4})
		mustAppend(t, w, "x", 10) // syncs at 4 and 8
		if _, err := w.CrashLose(); err != nil {
			t.Fatal(err)
		}
		_, last, _ := collect(t, dir, 0)
		if last != 8 {
			t.Fatalf("fsync=interval(4) kept last=%d, want 8", last)
		}
	})
}

// TestWALCorruption is the CI corruption smoke (satellite 2): truncations
// and bit flips anywhere in the log either replay cleanly up to a torn
// final tail, or fail loudly with ErrCorrupt — never a silent gap.
func TestWALCorruption(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		w, _ := Open(dir, Options{SegmentBytes: 512})
		mustAppend(t, w, "x", 30)
		w.Close()
		return dir
	}
	verify := func(t *testing.T, dir string, mutated string) {
		var seqs []uint64
		last, torn, err := Replay(dir, 0, func(e Entry) error {
			seqs = append(seqs, e.Seq)
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: non-ErrCorrupt failure: %v", mutated, err)
			}
			return // loud failure: acceptable
		}
		// Clean replay: the surviving entries must form a gapless prefix —
		// only a contiguous tail may be missing (a tail cut at an exact
		// record boundary is indistinguishable from a clean shutdown; the
		// fsync gate, not the CRC, is what pins the tail). A hole in the
		// middle would be a silently dropped committed record.
		_ = torn
		for i, s := range seqs {
			if i == 0 {
				if s != 1 {
					t.Fatalf("%s: replay starts at %d, not 1", mutated, s)
				}
			} else if s != seqs[i-1]+1 {
				t.Fatalf("%s: silent gap: %d follows %d", mutated, s, seqs[i-1])
			}
		}
		if len(seqs) > 0 && seqs[len(seqs)-1] != last {
			t.Fatalf("%s: last mismatch", mutated)
		}
	}

	t.Run("truncate-tails", func(t *testing.T) {
		ref := build(t)
		names, _ := Segments(ref)
		lastPath := filepath.Join(ref, names[len(names)-1])
		data, _ := os.ReadFile(lastPath)
		for cut := 1; cut < len(data); cut += 7 {
			dir := build(t)
			names, _ := Segments(dir)
			p := filepath.Join(dir, names[len(names)-1])
			d, _ := os.ReadFile(p)
			os.WriteFile(p, d[:len(d)-cut], 0o644)
			verify(t, dir, fmt.Sprintf("truncate %d", cut))
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		ref := build(t)
		names, _ := Segments(ref)
		for si, name := range names {
			data, _ := os.ReadFile(filepath.Join(ref, name))
			for pos := 0; pos < len(data); pos += 13 {
				dir := build(t)
				ns, _ := Segments(dir)
				p := filepath.Join(dir, ns[si])
				d, _ := os.ReadFile(p)
				d[pos] ^= 0x40
				os.WriteFile(p, d, 0o644)
				verify(t, dir, fmt.Sprintf("flip seg%d@%d", si, pos))
			}
		}
	})
}

// FuzzWALReplay fuzzes arbitrary mutations of a valid log: Replay must
// either error (loudly) or produce a gapless, in-order entry sequence,
// and Open, reading the segments through the same decoder, must agree:
// an error for an error, and otherwise a writer at Replay's last sequence.
func FuzzWALReplay(f *testing.F) {
	f.Add(uint32(0), uint8(0))
	f.Add(uint32(100), uint8(0xff))
	f.Add(uint32(7), uint8(1))
	f.Fuzz(func(t *testing.T, pos uint32, flip uint8) {
		dir := t.TempDir()
		w, err := Open(dir, Options{SegmentBytes: 512})
		if err != nil {
			t.Skip()
		}
		mustAppendF(t, w, 20)
		w.Close()
		names, _ := Segments(dir)
		if len(names) == 0 {
			t.Skip()
		}
		p := filepath.Join(dir, names[int(pos)%len(names)])
		data, _ := os.ReadFile(p)
		if len(data) == 0 {
			t.Skip()
		}
		i := int(pos) % len(data)
		if flip == 0 {
			data = data[:i] // truncation
		} else {
			data[i] ^= flip // bit flip
		}
		os.WriteFile(p, data, 0o644)

		var prev uint64
		first := true
		last, _, err := Replay(dir, 0, func(e Entry) error {
			if !first && e.Seq != prev+1 {
				t.Fatalf("silent gap: %d after %d", e.Seq, prev)
			}
			first = false
			prev = e.Seq
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("non-ErrCorrupt replay failure: %v", err)
		}
		w2, oerr := Open(dir, Options{SegmentBytes: 512})
		if (err == nil) != (oerr == nil) {
			t.Fatalf("Replay error %v, Open error %v", err, oerr)
		}
		if oerr == nil {
			defer w2.Close()
			if w2.Seq() != last {
				t.Fatalf("Open positioned at seq %d, Replay read to %d", w2.Seq(), last)
			}
		}
	})
}

func mustAppendF(t *testing.T, w *Writer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		data, _ := json.Marshal(map[string]int{"i": i})
		if _, err := w.Append("fuzz", int64(i), 0, []Op{{Kind: "t", Data: data}}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"every", FsyncEveryCommit}, {"interval", FsyncInterval}, {"none", FsyncNone}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("expected error")
	}
}

func TestHeaderlessFinalSegmentRebuilt(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{SegmentBytes: 128})
	mustAppend(t, w, "x", 10)
	w.Close()
	names, _ := Segments(dir)
	if len(names) < 2 {
		t.Skip("need rotation")
	}
	// Simulate a segment created but torn before its header landed.
	p := filepath.Join(dir, names[len(names)-1])
	os.WriteFile(p, []byte{0x01, 0x02}, 0o644)
	w2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w2, "y", 1)
	w2.Close()
	_, _, err = Replay(dir, 0, nil)
	if err != nil {
		t.Fatalf("replay after rebuild: %v", err)
	}
}

func TestMidLogCorruptionLoud(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{})
	mustAppend(t, w, "x", 5)
	w.Close()
	names, _ := Segments(dir)
	p := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(p)
	// Flip a byte inside the first record's payload (past header+frame).
	data[headerSize+frameSize+2] ^= 0xff
	os.WriteFile(p, data, 0o644)
	_, _, err := Replay(dir, 0, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open should refuse corrupt log, got %v", err)
	}
}
