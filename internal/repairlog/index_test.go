package repairlog

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aire/internal/vdb"
	"aire/internal/wire"
)

// depRec builds a record with one read, one scan, one write, and one
// Aire-identified outgoing call.
func depRec(id string, ts int64, key, respID, remoteID string) *Record {
	r := rec(id, ts)
	k := vdb.Key{Model: "kv", ID: key}
	r.Reads = []ReadDep{{Key: k, TS: ts, Hash: 1}}
	r.Scans = []ScanDep{{Model: "kv", Hash: 2}}
	r.Writes = []WriteDep{{Key: k, TS: ts}}
	r.Calls = []Call{{Target: "peer", RespID: respID, RemoteReqID: remoteID, Req: wire.NewRequest("POST", "/p")}}
	return r
}

func refIDs(refs []Ref) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.Rec.ID
	}
	return out
}

func TestDepIndexMaintainedAcrossAppendUpdateGC(t *testing.T) {
	l := New(false)
	for i := 1; i <= 4; i++ {
		key := "a"
		if i%2 == 0 {
			key = "b"
		}
		if err := l.Append(depRec(fmt.Sprintf("r%d", i), int64(i*10), key, fmt.Sprintf("resp-%d", i), fmt.Sprintf("rem-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ka, kb := vdb.Key{Model: "kv", ID: "a"}, vdb.Key{Model: "kv", ID: "b"}

	if got := refIDs(l.ReadersOf(ka, 0, 0)); len(got) != 2 || got[0] != "r1" || got[1] != "r3" {
		t.Fatalf("ReadersOf(a) = %v", got)
	}
	if got := refIDs(l.ReadersOf(ka, 15, 0)); len(got) != 1 || got[0] != "r3" {
		t.Fatalf("ReadersOf(a, after ts 15) = %v", got)
	}
	if got := refIDs(l.WritersOf(kb, 0, 0)); len(got) != 2 || got[0] != "r2" || got[1] != "r4" {
		t.Fatalf("WritersOf(b) = %v", got)
	}
	if got := refIDs(l.ScannersOf("kv", 25, 0)); len(got) != 2 || got[0] != "r3" {
		t.Fatalf("ScannersOf(kv, after ts 25) = %v", got)
	}
	if got := l.TotalModelOps(); got != 12 {
		t.Fatalf("TotalModelOps = %d, want 12", got)
	}

	// Update rewrites r3's dependencies wholesale: the subtle Update-resync
	// path — a repair callback freely rewrites Calls[].RespID and the dep
	// slices, and the indexes must follow.
	// Strict-after semantics on equal timestamps: the repair engine must
	// not be handed a same-TS record that precedes the mutating record on
	// the timeline (it already passed its dependency gate).
	tie := depRec("tie", 10, "a", "resp-tie", "rem-tie") // same TS as r1, later seq
	if err := l.Append(tie); err != nil {
		t.Fatal(err)
	}
	r1ref, _ := l.RefOf("r1")
	if got := refIDs(l.ReadersOf(ka, r1ref.TS, r1ref.Seq)); len(got) != 2 || got[0] != "tie" || got[1] != "r3" {
		t.Fatalf("ReadersOf(a, after r1) = %v, want [tie r3]", got)
	}
	tieRef, _ := l.RefOf("tie")
	if got := refIDs(l.ReadersOf(ka, tieRef.TS, tieRef.Seq)); len(got) != 1 || got[0] != "r3" {
		t.Fatalf("ReadersOf(a, after tie) = %v, want [r3]", got)
	}
	if n := l.GC(10); n != 0 { // drop nothing, keep the tie record for below
		t.Fatalf("GC(10) removed %d", n)
	}
	if err := l.Update("tie", func(r *Record) { r.Reads, r.Scans, r.Writes, r.Calls = nil, nil, nil, nil }); err != nil {
		t.Fatal(err)
	}
	if got := refIDs(l.ReadersOf(ka, 0, 0)); len(got) != 2 {
		t.Fatalf("after clearing tie, ReadersOf(a) = %v", got)
	}

	if err := l.Update("r3", func(r *Record) {
		r.Reads = []ReadDep{{Key: kb, TS: 30, Hash: 9}}
		r.Scans = nil
		r.Writes = nil
		r.Calls = []Call{{Target: "peer", RespID: "resp-3b", RemoteReqID: "rem-3b"}}
	}); err != nil {
		t.Fatal(err)
	}
	if got := refIDs(l.ReadersOf(ka, 0, 0)); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("after update, ReadersOf(a) = %v", got)
	}
	if got := refIDs(l.ReadersOf(kb, 0, 0)); len(got) != 3 {
		t.Fatalf("after update, ReadersOf(b) = %v", got)
	}
	if _, _, ok := l.FindByCallRespID("resp-3"); ok {
		t.Fatal("stale RespID resp-3 still indexed after Update rewrote it")
	}
	if r, i, ok := l.FindByCallRespID("resp-3b"); !ok || r.ID != "r3" || i != 0 {
		t.Fatalf("FindByCallRespID(resp-3b) = %v %d %v", r, i, ok)
	}
	if before, after := l.NeighborCalls("peer", 35); before != "rem-3b" || after != "rem-4" {
		t.Fatalf("NeighborCalls(peer, 35) = %q,%q", before, after)
	}
	if got := l.TotalModelOps(); got != 10 {
		t.Fatalf("after update, TotalModelOps = %d, want 10", got)
	}

	// In-place mutation + Resync: the repair engine's re-execution path.
	r3, _ := l.Get("r3")
	r3.Reads = nil
	r3.Calls = nil
	if err := l.Resync("r3"); err != nil {
		t.Fatal(err)
	}
	if got := refIDs(l.ReadersOf(kb, 0, 0)); len(got) != 2 {
		t.Fatalf("after resync, ReadersOf(b) = %v", got)
	}
	if _, _, ok := l.FindByCallRespID("resp-3b"); ok {
		t.Fatal("resp-3b still indexed after in-place clear + Resync")
	}

	// GC drops r1/r2/tie and their index entries.
	if n := l.GC(30); n != 3 {
		t.Fatalf("GC removed %d", n)
	}
	if got := refIDs(l.ReadersOf(ka, 0, 0)); len(got) != 0 {
		t.Fatalf("after GC, ReadersOf(a) = %v", got)
	}
	if _, _, ok := l.FindByCallRespID("resp-1"); ok {
		t.Fatal("GC'd record's RespID still indexed")
	}
	if before, after := l.NeighborCalls("peer", 0); before != "" || after != "rem-4" {
		t.Fatalf("after GC, NeighborCalls(peer, 0) = %q,%q", before, after)
	}
	if got := l.TotalModelOps(); got != 3 {
		t.Fatalf("after GC, TotalModelOps = %d, want 3", got)
	}
}

// TestNeighborCallsMatchesLinearOnTies pins the indexed NeighborCalls to
// the linear reference when records share a timestamp (repair can place a
// created request at an occupied midpoint) and when a record makes several
// calls to one target.
func TestNeighborCallsMatchesLinearOnTies(t *testing.T) {
	l := New(false)
	r1 := rec("r1", 10)
	r1.Calls = []Call{
		{Target: "b", RemoteReqID: "b-1"},
		{Target: "b", RemoteReqID: "b-2"},
	}
	l.Append(r1)
	r2 := rec("r2", 10) // same TS: ordered after r1 by insertion
	r2.Calls = []Call{{Target: "b", RemoteReqID: "b-3"}}
	l.Append(r2)
	r3 := rec("r3", 20)
	r3.Calls = []Call{{Target: "b", RemoteReqID: "b-4"}}
	l.Append(r3)

	for _, ts := range []int64{0, 5, 10, 11, 15, 20, 25} {
		gb, ga := l.NeighborCalls("b", ts)
		wb, wa := l.neighborCallsLinear("b", ts)
		if gb != wb || ga != wa {
			t.Fatalf("NeighborCalls(b, %d) = %q,%q; linear reference %q,%q", ts, gb, ga, wb, wa)
		}
	}
}

// randCalls draws 0–2 outgoing calls to peers b and c; each may lack an
// Aire-Response-Id or a remote request ID. next mints unique IDs.
func randCalls(rng *rand.Rand, next func(string) string) []Call {
	var calls []Call
	for n := rng.Intn(3); n > 0; n-- {
		c := Call{Target: []string{"b", "c"}[rng.Intn(2)]}
		if rng.Intn(4) > 0 {
			c.RespID = next("resp")
		}
		if rng.Intn(4) > 0 {
			c.RemoteReqID = next("rem")
		}
		calls = append(calls, c)
	}
	return calls
}

// randDeps sets 0–2 reads, writes and scans over three keys of one model.
func randDeps(rng *rand.Rand, r *Record) {
	r.Reads, r.Writes, r.Scans = nil, nil, nil
	for n := rng.Intn(3); n > 0; n-- {
		k := vdb.Key{Model: "kv", ID: fmt.Sprint(rng.Intn(3))}
		if rng.Intn(2) == 0 {
			r.Reads = append(r.Reads, ReadDep{Key: k, TS: r.TS})
		} else {
			r.Writes = append(r.Writes, WriteDep{Key: k, TS: r.TS})
		}
	}
	if rng.Intn(3) == 0 {
		r.Scans = []ScanDep{{Model: "kv"}}
	}
}

// depsAfterLinear is the reference for ReadersOf, WritersOf and
// ScannersOf: every record strictly after (ts, seq) on the timeline that
// has the dependency.
func (l *Log) depsAfterLinear(ts, seq int64, has func(*Record) bool) []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var ids []string
	for _, r := range l.order {
		if (r.TS > ts || r.TS == ts && r.seq > seq) && has(r) {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// TestLookupsMatchLinearReference compares the indexed lookups with their
// linear references after every step of seeded sequences of Append (new
// records and creates in the past, timestamps tied), Update, an in-place
// rewrite plus Resync (as re-execution does), and GC: FindByCallRespID for
// every response ID ever issued, NeighborCalls for both peers around every
// record, and ReadersOf, WritersOf and ScannersOf after every record.
func TestLookupsMatchLinearReference(t *testing.T) {
	const seeds, steps = 20, 60
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := New(false)
		n := 0
		next := func(kind string) string { n++; return fmt.Sprintf("%s-%d", kind, n) }
		var respIDs []string
		issue := func(calls []Call) {
			for _, c := range calls {
				if c.RespID != "" {
					respIDs = append(respIDs, c.RespID)
				}
			}
		}
		var maxTS, gcTS int64
		for step := 0; step < steps; step++ {
			recs := l.All()
			switch op := rng.Intn(10); {
			case op < 5 || len(recs) == 0:
				// Mostly at the tail; a third in the past, on or between
				// existing timestamps.
				ts := maxTS + 10
				if len(recs) > 0 && rng.Intn(3) == 0 {
					ts = recs[rng.Intn(len(recs))].TS + int64(rng.Intn(2))*5
				}
				maxTS = max(maxTS, ts)
				r := rec(next("req"), ts)
				r.Calls = randCalls(rng, next)
				randDeps(rng, r)
				issue(r.Calls)
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			case op < 7:
				calls := randCalls(rng, next)
				issue(calls)
				if err := l.Update(recs[rng.Intn(len(recs))].ID, func(r *Record) { r.Calls = calls; randDeps(rng, r) }); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				r := recs[rng.Intn(len(recs))]
				r.Calls = randCalls(rng, next)
				randDeps(rng, r)
				issue(r.Calls)
				if err := l.Resync(r.ID); err != nil {
					t.Fatal(err)
				}
			default:
				gcTS += (maxTS - gcTS) / 4
				l.GC(gcTS)
			}

			if err := l.VerifyIndexes(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for _, id := range respIDs {
				ri, ii, oki := l.FindByCallRespID(id)
				rl, il, okl := l.findByCallRespIDLinear(id)
				if oki != okl || ri != rl || ii != il {
					t.Fatalf("seed %d step %d: FindByCallRespID(%s) = %v,%d,%v; linear %v,%d,%v", seed, step, id, ri, ii, oki, rl, il, okl)
				}
			}
			for _, r := range l.All() {
				for _, target := range []string{"b", "c"} {
					for _, ts := range []int64{r.TS - 1, r.TS, r.TS + 1} {
						bi, ai := l.NeighborCalls(target, ts)
						bl, al := l.neighborCallsLinear(target, ts)
						if bi != bl || ai != al {
							t.Fatalf("seed %d step %d: NeighborCalls(%s, %d) = %q,%q; linear %q,%q", seed, step, target, ts, bi, ai, bl, al)
						}
					}
				}
				for _, id := range []string{"0", "1", "2"} {
					k := vdb.Key{Model: "kv", ID: id}
					readers := l.depsAfterLinear(r.TS, r.seq, func(o *Record) bool {
						return slices.ContainsFunc(o.Reads, func(d ReadDep) bool { return d.Key == k })
					})
					writers := l.depsAfterLinear(r.TS, r.seq, func(o *Record) bool {
						return slices.ContainsFunc(o.Writes, func(d WriteDep) bool { return d.Key == k })
					})
					if got := refIDs(l.ReadersOf(k, r.TS, r.seq)); !slices.Equal(got, readers) {
						t.Fatalf("seed %d step %d: ReadersOf(%s) after %s = %v; linear %v", seed, step, id, r.ID, got, readers)
					}
					if got := refIDs(l.WritersOf(k, r.TS, r.seq)); !slices.Equal(got, writers) {
						t.Fatalf("seed %d step %d: WritersOf(%s) after %s = %v; linear %v", seed, step, id, r.ID, got, writers)
					}
				}
				scanners := l.depsAfterLinear(r.TS, r.seq, func(o *Record) bool { return len(o.Scans) > 0 })
				if got := refIDs(l.ScannersOf("kv", r.TS, r.seq)); !slices.Equal(got, scanners) {
					t.Fatalf("seed %d step %d: ScannersOf(kv) after %s = %v; linear %v", seed, step, r.ID, got, scanners)
				}
			}
		}
	}
}

// callIndexWork re-executes every record of a log of n, each calling
// three peers, and returns the call-index entries touched per re-executed
// record: first with each record keeping its calls (unindexed, then
// re-indexed with fresh remote IDs, as a replace repair re-executes it),
// then with each losing them (as a cancelled write's dependents do when
// their read misses).
func callIndexWork(t *testing.T, n int) (keep, drop float64) {
	t.Helper()
	l := New(false)
	peers := []string{"p0", "p1", "p2"}
	calls := func(i, gen int) []Call {
		var cs []Call
		for _, p := range peers {
			cs = append(cs, Call{Target: p, RespID: fmt.Sprintf("resp-%d-%s-%d", i, p, gen), RemoteReqID: fmt.Sprintf("%s-req-%d-%d", p, i, gen)})
		}
		return cs
	}
	for i := 0; i < n; i++ {
		r := rec(fmt.Sprintf("req-%d", i), int64(i+1))
		r.Calls = calls(i, 0)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	perRecord := func(rewrite func(i int, r *Record)) float64 {
		w0 := l.callWork
		for i, r := range l.All() {
			if err := l.Update(r.ID, func(r *Record) { rewrite(i, r) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.VerifyIndexes(); err != nil {
			t.Fatal(err)
		}
		return float64(l.callWork-w0) / float64(n)
	}
	keep = perRecord(func(i int, r *Record) { r.Calls = calls(i, 1) })
	drop = perRecord(func(_ int, r *Record) { r.Calls = nil })
	if len(l.calls) != 0 {
		t.Fatalf("%d call timelines left after every call was dropped", len(l.calls))
	}
	return keep, drop
}

// TestCallIndexCostPinned pins the per-target call timelines at O(1)
// amortized per re-executed record: the entries they touch (written,
// moved or walked, read from the log's own counter) per re-executed record
// stay flat from 10³ to 10⁴ records, whether the record keeps its calls or
// loses them. A removal that splices the record's sites out of the line,
// or an insert that splices them back in, moves every later site, so the
// entries per record grow with the log.
func TestCallIndexCostPinned(t *testing.T) {
	const (
		maxGrowth = 1.2
		maxWork   = 9.9 // entries per re-executed record (measured 6.0 keeping its calls, 9.0 losing them)
	)
	smallKeep, smallDrop := callIndexWork(t, 1000)
	largeKeep, largeDrop := callIndexWork(t, 10000)
	t.Logf("call-index entries per re-executed record: keep %.2f → %.2f, drop %.2f → %.2f (10³ → 10⁴ records)", smallKeep, largeKeep, smallDrop, largeDrop)
	for _, c := range []struct {
		name         string
		small, large float64
	}{{"keeping its calls", smallKeep, largeKeep}, {"losing its calls", smallDrop, largeDrop}} {
		if c.large > maxGrowth*c.small || c.large > maxWork {
			t.Errorf("%s: %.2f → %.2f entries per record from 10³ to 10⁴ records (bound %.1f×, ceiling %.1f)", c.name, c.small, c.large, maxGrowth, maxWork)
		}
	}
}

// TestIndexBytesAccounting: the index memory estimate is positive once
// dependencies are indexed, grows with the indexed population, and shrinks
// when GC unindexes records — the coherence property that makes it a
// usable storage-overhead metric (ROADMAP: "index memory is unaccounted").
func TestIndexBytesAccounting(t *testing.T) {
	l := New(false)
	if got := l.IndexBytes(); got != 0 {
		t.Fatalf("empty log IndexBytes = %d, want 0", got)
	}
	var sizes []int64
	for i := 1; i <= 20; i++ {
		if err := l.Append(depRec(fmt.Sprintf("r%d", i), int64(i*10), fmt.Sprintf("k%d", i), fmt.Sprintf("resp-%d", i), fmt.Sprintf("rem-%d", i))); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, l.IndexBytes())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("IndexBytes did not grow on append %d: %v", i+1, sizes)
		}
	}
	full := l.IndexBytes()
	l.GC(105) // drops the first ten records
	if after := l.IndexBytes(); after >= full || after <= 0 {
		t.Fatalf("IndexBytes after GC = %d (was %d): want smaller but positive", after, full)
	}
}

// findByCallRespIDLinear is the pre-index reference implementation (scan
// every call of every record), retained for the randomized equivalence
// tests and the before/after benchmarks.
func (l *Log) findByCallRespIDLinear(respID string) (*Record, int, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, r := range l.order {
		for i, c := range r.Calls {
			if c.RespID == respID {
				return r, i, true
			}
		}
	}
	return nil, 0, false
}

// neighborCallsLinear is the pre-index reference implementation (walk the
// whole timeline), retained for the randomized equivalence tests and the
// before/after benchmarks.
func (l *Log) neighborCallsLinear(target string, ts int64) (beforeID, afterID string) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, r := range l.order {
		for _, c := range r.Calls {
			if c.Target != target || c.RemoteReqID == "" {
				continue
			}
			if r.TS < ts {
				beforeID = c.RemoteReqID
			} else if afterID == "" {
				afterID = c.RemoteReqID
				return beforeID, afterID
			}
		}
	}
	return beforeID, afterID
}
