package repairlog

import (
	"fmt"
	"strings"
	"testing"

	"aire/internal/vdb"
)

// buildVerifyLog exercises every index-mutating path: appends (including
// out-of-order timestamps), in-place rewrite + Resync, Update, and GC.
func buildVerifyLog(t *testing.T) *Log {
	t.Helper()
	l := New(false)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	key := func(id string) vdb.Key { return vdb.Key{Model: "kv", ID: id} }
	must(l.Append(&Record{
		ID: "req-1", TS: 10,
		Reads:  []ReadDep{{Key: key("x"), TS: 0, Hash: 0}},
		Writes: []WriteDep{{Key: key("x"), TS: 10}},
		Calls: []Call{
			{Seq: 0, Target: "mirror", RespID: "resp-1", RemoteReqID: "mirror-req-1"},
		},
	}))
	must(l.Append(&Record{
		ID: "req-2", TS: 20,
		Reads: []ReadDep{{Key: key("x"), TS: 10, Hash: 7}, {Key: key("x"), TS: 10, Hash: 7}}, // dup dep indexes once
		Scans: []ScanDep{{Model: "kv", Hash: 3}},
		Calls: []Call{
			{Seq: 0, Target: "mirror", RespID: "resp-2", RemoteReqID: "mirror-req-2"},
			{Seq: 1, Target: "audit", RespID: "resp-3", RemoteReqID: "audit-req-1"},
		},
	}))
	// A create repair appends into the past.
	must(l.Append(&Record{ID: "req-3", TS: 15, Synthetic: true, Writes: []WriteDep{{Key: key("y"), TS: 15}}}))
	// Re-execution rewrites a record in place, then resyncs.
	rec, _ := l.Get("req-2")
	rec.Calls[0].RespID = "resp-2b"
	rec.Reads = []ReadDep{{Key: key("y"), TS: 15, Hash: 9}}
	must(l.Resync("req-2"))
	must(l.Update("req-1", func(r *Record) { r.RepairGen++ }))
	must(l.Append(&Record{ID: "req-0", TS: 1, Writes: []WriteDep{{Key: key("z"), TS: 1}}}))
	l.GC(5) // drops req-0
	return l
}

func TestLogVerifyIndexesHealthy(t *testing.T) {
	l := buildVerifyLog(t)
	if err := l.VerifyIndexes(); err != nil {
		t.Fatalf("healthy log failed verification: %v", err)
	}
	if err := New(false).VerifyIndexes(); err != nil {
		t.Fatalf("empty log failed verification: %v", err)
	}
}

func TestLogVerifyIndexesDetectsCorruption(t *testing.T) {
	key := func(id string) vdb.Key { return vdb.Key{Model: "kv", ID: id} }
	cases := []struct {
		name    string
		corrupt func(*Log)
		want    string
	}{
		{
			name:    "dropped respIdx entry",
			corrupt: func(l *Log) { delete(l.respIdx, "resp-1") },
			want:    "missing from respIdx",
		},
		{
			name: "respIdx points at wrong call",
			corrupt: func(l *Log) {
				pos := l.respIdx["resp-3"]
				pos.idx = 0
				l.respIdx["resp-3"] = pos
			},
			want: "names record",
		},
		{
			name:    "stale respIdx entry",
			corrupt: func(l *Log) { l.respIdx["resp-ghost"] = l.respIdx["resp-1"] },
			want:    "respIdx holds",
		},
		{
			name:    "totalOps drift",
			corrupt: func(l *Log) { l.totalOps++ },
			want:    "totalOps drift",
		},
		{
			name:    "dropped call site",
			corrupt: func(l *Log) { delete(l.calls, "audit") },
			want:    "missing from the call timeline",
		},
		{
			name: "dropped reader ref",
			corrupt: func(l *Log) {
				refs := l.readers[key("y")]
				l.readers[key("y")] = refs[:len(refs)-1]
			},
			want: "missing from readers",
		},
		{
			name: "stale writer ref",
			corrupt: func(l *Log) {
				ghost := &Record{ID: "ghost", TS: 99, seq: 999}
				l.writers[key("x")], _ = insertRef(l.writers[key("x")], ghost)
			},
			want: "not in the log",
		},
		{
			name: "ref position diverged",
			corrupt: func(l *Log) {
				refs := l.scanners["kv"]
				refs[0].Seq++
				// keep the list sorted so the divergence check is what fires
			},
			want: "diverged",
		},
		{
			name:    "byID/order split",
			corrupt: func(l *Log) { delete(l.byID, "req-3") },
			want:    "records on the timeline",
		},
		{
			name:    "timeline unsorted",
			corrupt: func(l *Log) { l.order[0], l.order[1] = l.order[1], l.order[0] },
			want:    "timeline unsorted",
		},
		{
			name:    "test hook",
			corrupt: func(l *Log) { l.CorruptRespIndexForTest() },
			want:    "respIdx",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := buildVerifyLog(t)
			if err := l.VerifyIndexes(); err != nil {
				t.Fatalf("pre-corruption: %v", err)
			}
			tc.corrupt(l)
			err := l.VerifyIndexes()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// The hook must fire even on a log with no identified calls.
func TestCorruptHookOnEmptyRespIdx(t *testing.T) {
	l := New(false)
	if err := l.Append(&Record{ID: "r1", TS: 1, Writes: []WriteDep{{Key: vdb.Key{Model: "kv", ID: "x"}, TS: 1}}}); err != nil {
		t.Fatal(err)
	}
	l.CorruptRespIndexForTest()
	if err := l.VerifyIndexes(); err == nil {
		t.Fatal("corruption not detected")
	} else if !strings.Contains(err.Error(), "totalOps drift") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// Verification on a log under churn stays coherent: append/update/GC in a
// loop, verifying at each step (catches ordering bugs the single-shot
// builder misses).
func TestVerifyIndexesUnderChurn(t *testing.T) {
	l := New(false)
	key := func(i int) vdb.Key { return vdb.Key{Model: "m", ID: fmt.Sprintf("k%d", i%5)} }
	for i := 0; i < 60; i++ {
		r := &Record{
			ID: fmt.Sprintf("req-%d", i), TS: int64((i * 7) % 40),
			Reads:  []ReadDep{{Key: key(i)}},
			Writes: []WriteDep{{Key: key(i + 1)}},
		}
		if i%3 == 0 {
			r.Calls = []Call{{Target: "peer", RespID: fmt.Sprintf("resp-%d", i), RemoteReqID: fmt.Sprintf("remote-%d", i)}}
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := l.Update(r.ID, func(rec *Record) { rec.Scans = append(rec.Scans, ScanDep{Model: "m"}) }); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 9 {
			l.GC(int64(i % 15))
		}
		if err := l.VerifyIndexes(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}
