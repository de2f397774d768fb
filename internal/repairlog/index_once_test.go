package repairlog

import (
	"fmt"
	"slices"
	"testing"

	"aire/internal/vdb"
)

// linearRefs is the reference for ReadersOf/WritersOf/ScannersOf: walk the
// whole timeline and keep the records strictly after (ts, seq) with a
// matching dependency.
func linearRefs(l *Log, ts, seq int64, match func(*Record) bool) []string {
	var out []string
	for _, r := range l.All() {
		if (r.TS > ts || (r.TS == ts && r.seq > seq)) && match(r) {
			out = append(out, r.ID)
		}
	}
	return out
}

func readsKey(k vdb.Key) func(*Record) bool {
	return func(r *Record) bool {
		for _, d := range r.Reads {
			if d.Key == k {
				return true
			}
		}
		return false
	}
}

func writesKey(k vdb.Key) func(*Record) bool {
	return func(r *Record) bool {
		for _, d := range r.Writes {
			if d.Key == k {
				return true
			}
		}
		return false
	}
}

func scansModel(m string) func(*Record) bool {
	return func(r *Record) bool {
		for _, d := range r.Scans {
			if d.Model == m {
				return true
			}
		}
		return false
	}
}

// checkAgainstWalk verifies the log's indexes and compares every indexed
// query, from the start of the timeline and from each record's position,
// with the reference walk.
func checkAgainstWalk(t *testing.T, step string, l *Log) {
	t.Helper()
	if err := l.VerifyIndexes(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	keys := map[vdb.Key]bool{}
	models := map[string]bool{}
	from := []Ref{{}}
	for _, r := range l.All() {
		for _, d := range r.Reads {
			keys[d.Key] = true
		}
		for _, d := range r.Writes {
			keys[d.Key] = true
		}
		for _, d := range r.Scans {
			models[d.Model] = true
		}
		from = append(from, Ref{TS: r.TS, Seq: r.seq})
	}
	for _, at := range from {
		for k := range keys {
			if got, want := refIDs(l.ReadersOf(k, at.TS, at.Seq)), linearRefs(l, at.TS, at.Seq, readsKey(k)); !slices.Equal(got, want) {
				t.Fatalf("%s: ReadersOf(%v, %d, %d) = %v, walk %v", step, k, at.TS, at.Seq, got, want)
			}
			if got, want := refIDs(l.WritersOf(k, at.TS, at.Seq)), linearRefs(l, at.TS, at.Seq, writesKey(k)); !slices.Equal(got, want) {
				t.Fatalf("%s: WritersOf(%v, %d, %d) = %v, walk %v", step, k, at.TS, at.Seq, got, want)
			}
		}
		for m := range models {
			if got, want := refIDs(l.ScannersOf(m, at.TS, at.Seq)), linearRefs(l, at.TS, at.Seq, scansModel(m)); !slices.Equal(got, want) {
				t.Fatalf("%s: ScannersOf(%s, %d, %d) = %v, walk %v", step, m, at.TS, at.Seq, got, want)
			}
		}
	}
}

// manyDepRec is the Askbot question-list shape: n reads of one profile
// key, with a distinct question key after every tenth, plus repeated
// writes and scans.
func manyDepRec(id string, ts int64, n int) *Record {
	r := rec(id, ts)
	user := vdb.Key{Model: "user", ID: "u"}
	for i := 0; i < n; i++ {
		r.Reads = append(r.Reads, ReadDep{Key: user, TS: 1, Hash: 7})
		if i%10 == 0 {
			r.Reads = append(r.Reads, ReadDep{Key: vdb.Key{Model: "question", ID: fmt.Sprintf("q%d", i/10)}, TS: 1, Hash: uint64(i)})
		}
	}
	r.Writes = []WriteDep{{Key: user, TS: ts}, {Key: vdb.Key{Model: "question", ID: "q0"}, TS: ts}, {Key: user, TS: ts}}
	r.Scans = []ScanDep{{Model: "question", Hash: 1}, {Model: "user", Hash: 2}, {Model: "question", Hash: 1}}
	return r
}

// TestIndexOncePerKey walks the index through the paths that do not end
// at the tail of a key's list: a record with 500 reads of one key, records
// appended in the past, an Update that rewrites an older record's
// dependencies to duplicates, and GC of a prefix. After every step the
// indexes verify and every indexed query matches the timeline walk.
func TestIndexOncePerKey(t *testing.T) {
	l := New(true)
	for i := 1; i <= 3; i++ {
		if err := l.Append(depRec(fmt.Sprintf("r%d", i), int64(i*100), "q1", "", "")); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstWalk(t, "seed", l)

	if err := l.Append(manyDepRec("many", 400, 500)); err != nil {
		t.Fatal(err)
	}
	checkAgainstWalk(t, "500 reads of one key", l)
	user := vdb.Key{Model: "user", ID: "u"}
	if st := l.indexed[l.byID["many"]]; len(st.readKeys) != 51 || len(st.writeKeys) != 2 || len(st.scanModels) != 2 {
		t.Fatalf("indexed state of 500-read record holds %d/%d/%d keys, want 51/2/2", len(st.readKeys), len(st.writeKeys), len(st.scanModels))
	}

	// In the past: below the tail of every list it joins, and tied with r2.
	if err := l.Append(manyDepRec("past", 150, 50)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(manyDepRec("tie", 200, 20)); err != nil {
		t.Fatal(err)
	}
	checkAgainstWalk(t, "appended in the past", l)
	if got := refIDs(l.ReadersOf(user, 0, 0)); !slices.Equal(got, []string{"past", "tie", "many"}) {
		t.Fatalf("ReadersOf(user) = %v", got)
	}

	// An Update of an older record to duplicate dependencies, then one back
	// to a single dependency, then an in-place rewrite plus Resync.
	if err := l.Update("r2", func(r *Record) {
		r.Reads = manyDepRec("", 0, 100).Reads
		r.Writes = []WriteDep{{Key: user, TS: r.TS}, {Key: user, TS: r.TS}}
		r.Scans = []ScanDep{{Model: "user", Hash: 3}, {Model: "user", Hash: 3}}
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstWalk(t, "update to duplicates", l)
	if err := l.Update("many", func(r *Record) { r.Reads = r.Reads[:1] }); err != nil {
		t.Fatal(err)
	}
	checkAgainstWalk(t, "update to one read", l)
	past, _ := l.Get("past")
	past.Reads = append(past.Reads, past.Reads...)
	past.Scans = nil
	if err := l.Resync("past"); err != nil {
		t.Fatal(err)
	}
	checkAgainstWalk(t, "resync", l)

	if n := l.GC(200); n != 2 {
		t.Fatalf("GC(200) removed %d records, want r1 and past", n)
	}
	checkAgainstWalk(t, "GC of a prefix", l)
	if n := l.GC(401); n != 4 {
		t.Fatalf("GC(401) removed %d records, want the rest", n)
	}
	checkAgainstWalk(t, "GC of everything", l)
	if len(l.readers) != 0 || len(l.writers) != 0 || len(l.scanners) != 0 {
		t.Fatalf("empty log keeps %d/%d/%d index buckets", len(l.readers), len(l.writers), len(l.scanners))
	}
}

// TestIndexBytesCountsKeysOnce: a record reading one key 500 times costs
// the index what a record reading it once does.
func TestIndexBytesCountsKeysOnce(t *testing.T) {
	size := func(reads int) int64 {
		l := New(false)
		r := rec("r", 10)
		for i := 0; i < reads; i++ {
			r.Reads = append(r.Reads, ReadDep{Key: vdb.Key{Model: "user", ID: "u"}, TS: 1, Hash: 1})
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		return l.IndexBytes()
	}
	if one, many := size(1), size(500); one != many {
		t.Fatalf("IndexBytes = %d with one read, %d with 500 reads of the same key", one, many)
	}
}
