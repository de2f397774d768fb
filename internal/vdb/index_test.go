package vdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestScanHashAtExcludingConsistentSnapshot is the torn-snapshot regression
// test: the fingerprint must be computed under one lock, so a concurrent
// writer can never interleave mid-fingerprint. The writer advances keys x
// and y in lockstep (x first, then y), so the only consistent states are
// (x=k, y=k) and (x=k+1, y=k). The pre-fix implementation collected member
// IDs under one lock and hashed each member under its own, so a reader
// could observe x at one round and y at a much earlier one — a state that
// never existed.
func TestScanHashAtExcludingConsistentSnapshot(t *testing.T) {
	const rounds = 400
	const ts = int64(100) // both keys live at this fixed timestamp
	s := NewStore()
	if err := s.Put(Key{"m", "x"}, fields("0"), ts, "w0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key{"m", "y"}, fields("0"), ts, "w0"); err != nil {
		t.Fatal(err)
	}

	// Precompute every fingerprint a consistent snapshot may produce. The
	// writer's bump is rollback-then-put, so between the two either key is
	// transiently absent; those single-key states are consistent too.
	cx := func(v int) uint64 { return scanContrib("x", Version{Fields: fields(fmt.Sprint(v))}.Hash()) }
	cy := func(v int) uint64 { return scanContrib("y", Version{Fields: fields(fmt.Sprint(v))}.Hash()) }
	fp := func(xv, yv int) uint64 { return cx(xv) + cy(yv) }
	legal := make(map[uint64]bool, 4*rounds+4)
	for k := 0; k <= rounds; k++ {
		legal[fp(k, k)] = true   // between rounds
		legal[cy(k)] = true      // x mid-bump (absent)
		legal[fp(k+1, k)] = true // x bumped, y not yet
		legal[cx(k+1)] = true    // y mid-bump (absent)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		bump := func(id string, v int) {
			s.Rollback(Key{"m", id}, ts-1)
			if err := s.Put(Key{"m", id}, fields(fmt.Sprint(v)), ts, "w0"); err != nil {
				panic(err)
			}
		}
		for k := 1; k <= rounds; k++ {
			bump("x", k)
			bump("y", k)
		}
	}()

	for {
		got := s.ScanHashAtExcluding("m", ts, "r-none")
		if !legal[got] {
			t.Fatalf("observed fingerprint %#x corresponds to no consistent (x, y) state: the snapshot tore", got)
		}
		select {
		case <-done:
			wg.Wait()
			if got := s.ScanHashAtExcluding("m", ts, "r-none"); got != fp(rounds, rounds) {
				t.Fatalf("final fingerprint %#x != expected %#x", got, fp(rounds, rounds))
			}
			return
		default:
		}
	}
}

// TestIndexedScansMatchLinearReference drives the store through every
// index-maintaining operation (Put, coalescing re-Put, Delete, Rollback,
// GC, Dump and its replay, PutImmutable) and checks at each step that the
// indexed IDs/IDsAt/ScanHashAtExcluding agree with the retained
// linear-scan reference implementations.
func TestIndexedScansMatchLinearReference(t *testing.T) {
	s := NewStore()
	check := func(stage string, tss ...int64) {
		t.Helper()
		for _, model := range []string{"kv", "other", "absent"} {
			for _, ts := range tss {
				if got, want := s.IDsAt(model, ts), s.idsAtLinear(model, ts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: IDsAt(%q, %d) = %v, linear reference %v", stage, model, ts, got, want)
				}
				for _, req := range []string{"", "r-none", "r2", "r5"} {
					if got, want := s.ScanHashAtExcluding(model, ts, req), s.scanHashAtExcludingLinear(model, ts, req); got != want {
						t.Fatalf("%s: ScanHashAtExcluding(%q, %d, %q) = %#x, linear reference %#x", stage, model, ts, req, got, want)
					}
				}
			}
		}
	}

	mustPut := func(k Key, val string, ts int64, req string) {
		t.Helper()
		if err := s.Put(k, fields(val), ts, req); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(Key{"kv", "a"}, "1", 10, "r1")
	mustPut(Key{"kv", "b"}, "1", 20, "r2")
	mustPut(Key{"other", "z"}, "9", 25, "r2")
	check("initial", 5, 10, 20, 25, 100)

	mustPut(Key{"kv", "b"}, "2", 20, "r2") // coalesce: same ts, same request
	mustPut(Key{"kv", "a"}, "3", 30, "r3")
	check("coalesce+overwrite", 10, 20, 30, 100)

	if err := s.Delete(Key{"kv", "a"}, 40, "r4"); err != nil {
		t.Fatal(err)
	}
	check("tombstone", 30, 40, 100)

	mustPut(Key{"kv", "c"}, "5", 50, "r5")
	s.Rollback(Key{"kv", "c"}, 45) // removes c entirely
	s.Rollback(Key{"kv", "a"}, 35) // removes the tombstone, a live again
	check("rollback", 30, 40, 50, 100)

	if err := s.PutImmutable(Key{"kv", "v1"}, fields("frozen"), 60, "r6"); err != nil {
		t.Fatal(err)
	}
	check("immutable", 55, 60, 100)

	s.GC(25)
	check("gc", 30, 40, 60, 100)

	fresh := NewStore()
	if err := replayDump(fresh, s.Dump()); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{30, 40, 60, 100} {
		if got, want := fresh.ScanHashAtExcluding("kv", ts, ""), s.ScanHashAtExcluding("kv", ts, ""); got != want {
			t.Fatalf("restore: ScanHashAtExcluding(kv, %d) = %#x, original %#x", ts, got, want)
		}
		if got, want := fresh.IDsAt("kv", ts), s.IDsAt("kv", ts); !reflect.DeepEqual(got, want) {
			t.Fatalf("restore: IDsAt(kv, %d) = %v, original %v", ts, got, want)
		}
	}
	s = fresh
	check("restored", 30, 40, 60, 100)
}

// TestIndexBytesAccounting: the store's index memory estimate tracks the
// per-model member lists — positive once members exist, growing with new
// members, flat for new versions of existing members (versions are
// VersionBytes' ledger, not the index's), and shrinking when GC removes a
// model's last versions.
func TestIndexBytesAccounting(t *testing.T) {
	s := NewStore()
	if got := s.IndexBytes(); got != 0 {
		t.Fatalf("empty store IndexBytes = %d, want 0", got)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(Key{"m", fmt.Sprintf("id%d", i)}, fields("v"), int64(i+1), "w"); err != nil {
			t.Fatal(err)
		}
	}
	base := s.IndexBytes()
	if base <= 0 {
		t.Fatalf("IndexBytes = %d after 10 members", base)
	}
	// A new version of an existing member adds no index memory.
	if err := s.Put(Key{"m", "id0"}, fields("v2"), 50, "w"); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexBytes(); got != base {
		t.Fatalf("IndexBytes changed on re-put of a member: %d -> %d", base, got)
	}
	// A new member in a new model grows it.
	if err := s.Put(Key{"other", "x"}, fields("v"), 60, "w"); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexBytes(); got <= base {
		t.Fatalf("IndexBytes did not grow with a new model+member: %d -> %d", base, got)
	}
}

// listAtMatches checks one ListAt call against both references: the
// indexed ScanHashAtExcluding plus IDsAt and ViewAt, and their linear
// twins.
func listAtMatches(t *testing.T, s *Store, model string, ts int64, req string) {
	t.Helper()
	members, fp := s.ListAt(model, ts, req)
	var ids []string
	for _, m := range members {
		ids = append(ids, m.ID)
	}
	if want := s.ScanHashAtExcluding(model, ts, req); fp != want {
		t.Fatalf("ListAt(%q, %d, %q) fingerprint %#x, ScanHashAtExcluding %#x", model, ts, req, fp, want)
	}
	if want := s.scanHashAtExcludingLinear(model, ts, req); fp != want {
		t.Fatalf("ListAt(%q, %d, %q) fingerprint %#x, linear reference %#x", model, ts, req, fp, want)
	}
	for _, want := range [][]string{s.IDsAt(model, ts), s.idsAtLinear(model, ts)} {
		if len(ids) != len(want) || len(ids) > 0 && !reflect.DeepEqual(ids, want) {
			t.Fatalf("ListAt(%q, %d) IDs %v, reference %v", model, ts, ids, want)
		}
	}
	for i, id := range ids {
		want, ok := s.ViewAt(Key{Model: model, ID: id}, ts)
		if !ok || !reflect.DeepEqual(members[i].Version, want) {
			t.Fatalf("ListAt(%q, %d) version of %q = %+v, ViewAt %+v (live %v)", model, ts, id, members[i].Version, want, ok)
		}
	}
}

// TestListAtMatchesReferences runs random histories — several requests
// writing, overwriting their own writes, deleting, rolling back and
// creating immutable objects — and checks the one-walk listing at every
// timestamp, present and historical, for every request's mask.
func TestListAtMatchesReferences(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		reqs := []string{"r0", "r1", "r2", "r3"}
		ts := int64(0)
		for op := 0; op < 300; op++ {
			ts += int64(1 + rng.Intn(2))
			k := Key{Model: "kv", ID: fmt.Sprintf("k%d", rng.Intn(40))}
			req := reqs[rng.Intn(len(reqs))]
			switch r := rng.Intn(10); {
			case r < 5:
				s.Put(k, fields(fmt.Sprint(rng.Intn(5))), ts, req)
				if rng.Intn(4) == 0 { // the same request overwrites its own write
					s.Put(k, fields("own"), ts, req)
				}
			case r < 7:
				s.Delete(k, ts, req)
			case r < 9:
				s.Rollback(k, ts-int64(rng.Intn(20)))
			default:
				s.PutImmutable(Key{Model: "kv", ID: fmt.Sprintf("v%d", rng.Intn(10))}, fields("frozen"), ts, req)
			}
		}
		for _, at := range []int64{0, 1, ts / 4, ts / 2, ts - 1, ts, ts + 100} {
			for _, req := range append(reqs, "r-none") {
				listAtMatches(t, s, "kv", at, req)
			}
		}
		listAtMatches(t, s, "absent", ts, "r0")
		if err := s.VerifyIndexes(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestReplayManyCreates is WAL recovery's shape: 50k creates replayed in
// idgen order, whose IDs are not zero-padded and so land all over the
// member order. The member set must come out sorted, complete and coherent.
func TestReplayManyCreates(t *testing.T) {
	const n = 50000
	s := NewStore()
	want := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("q-askbot-req-%d.0", i)
		v := Version{TS: int64(i + 1), ReqID: fmt.Sprintf("askbot-req-%d", i), Fields: fields("t")}
		if err := s.ApplyChange(Change{Kind: "put", Key: Key{Model: "question", ID: id}, Version: &v}); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	if err := s.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	if got := s.IDs("question"); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed IDs differ from the sorted creates (%d vs %d)", len(got), len(want))
	}
}

// scanHashAtExcludingLinear is the pre-index reference implementation of
// ScanHashAtExcluding: a full object-map walk with per-member lock
// round-trips. Retained for the randomized equivalence tests and the
// before/after benchmarks; production code uses ScanHashAtExcluding.
func (s *Store) scanHashAtExcludingLinear(model string, ts int64, reqID string) uint64 {
	s.mu.RLock()
	ids := make([]string, 0, 16)
	for k := range s.objects {
		if k.Model == model {
			ids = append(ids, k.ID)
		}
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	var fp uint64
	for _, id := range ids {
		vh := s.HashAtExcluding(Key{Model: model, ID: id}, ts, reqID)
		if vh == MissingHash {
			continue
		}
		fp += scanContrib(id, vh)
	}
	return fp
}

// idsAtLinear is the pre-index reference implementation of IDsAt (full map
// walk plus sort), retained for equivalence tests.
func (s *Store) idsAtLinear(model string, ts int64) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ids []string
	for k, vs := range s.objects {
		if k.Model != model {
			continue
		}
		i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
		if i == 0 || vs[i-1].Deleted {
			continue
		}
		ids = append(ids, k.ID)
	}
	sort.Strings(ids)
	return ids
}
