package vdb

import (
	"fmt"
	"testing"
	"testing/quick"
)

func fields(v string) map[string]string { return map[string]string{"val": v} }

func TestPutGetLatest(t *testing.T) {
	s := NewStore()
	k := Key{Model: "kv", ID: "x"}
	if err := s.Put(k, fields("a"), 10, "r1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, fields("b"), 20, "r2"); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get(k)
	if !ok || v.Fields["val"] != "b" {
		t.Fatalf("Get = %+v, %v; want b", v, ok)
	}
}

func TestGetAtTimeTravel(t *testing.T) {
	s := NewStore()
	k := Key{Model: "kv", ID: "x"}
	s.Put(k, fields("a"), 10, "r1")
	s.Put(k, fields("b"), 20, "r2")
	for _, tc := range []struct {
		ts   int64
		want string
		ok   bool
	}{{5, "", false}, {10, "a", true}, {15, "a", true}, {20, "b", true}, {99, "b", true}} {
		v, ok := s.GetAt(k, tc.ts)
		if ok != tc.ok || (ok && v.Fields["val"] != tc.want) {
			t.Fatalf("GetAt(%d) = %+v, %v; want %q, %v", tc.ts, v, ok, tc.want, tc.ok)
		}
	}
}

func TestDeleteTombstone(t *testing.T) {
	s := NewStore()
	k := Key{Model: "kv", ID: "x"}
	s.Put(k, fields("a"), 10, "r1")
	s.Delete(k, 20, "r2")
	if _, ok := s.Get(k); ok {
		t.Fatal("deleted object still visible at latest")
	}
	if _, ok := s.GetAt(k, 15); !ok {
		t.Fatal("object must remain visible before deletion")
	}
	if h := s.HashAtExcluding(k, 25, ""); h != MissingHash {
		t.Fatalf("deleted object HashAtExcluding = %d, want MissingHash", h)
	}
}

func TestWriteIntoPastRejected(t *testing.T) {
	s := NewStore()
	k := Key{Model: "kv", ID: "x"}
	s.Put(k, fields("a"), 20, "r1")
	if err := s.Put(k, fields("b"), 10, "r2"); err == nil {
		t.Fatal("write into the past must fail")
	}
}

func TestSameRequestCoalesces(t *testing.T) {
	s := NewStore()
	k := Key{Model: "kv", ID: "x"}
	s.Put(k, fields("a"), 10, "r1")
	s.Put(k, fields("b"), 10, "r1")
	if n := len(s.Versions(k)); n != 1 {
		t.Fatalf("same-request writes must coalesce, have %d versions", n)
	}
	v, _ := s.Get(k)
	if v.Fields["val"] != "b" {
		t.Fatal("last write within request must win")
	}
}

func TestConflictingWritesSameTS(t *testing.T) {
	s := NewStore()
	k := Key{Model: "kv", ID: "x"}
	s.Put(k, fields("a"), 10, "r1")
	if err := s.Put(k, fields("b"), 10, "r2"); err == nil {
		t.Fatal("two requests writing at the same timestamp must conflict")
	}
}

func TestRollback(t *testing.T) {
	s := NewStore()
	k := Key{Model: "kv", ID: "x"}
	s.Put(k, fields("a"), 10, "r1")
	s.Put(k, fields("b"), 20, "r2")
	s.Put(k, fields("c"), 30, "r3")
	if n := s.Rollback(k, 15); n != 2 {
		t.Fatalf("Rollback removed %d versions, want 2", n)
	}
	v, ok := s.Get(k)
	if !ok || v.Fields["val"] != "a" {
		t.Fatalf("after rollback Get = %+v", v)
	}
	// Rolling back to before everything removes the key entirely.
	if n := s.Rollback(k, 5); n != 1 {
		t.Fatalf("final rollback removed %d, want 1", n)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("fully rolled-back object should not exist")
	}
	if len(s.objects) != 0 {
		t.Fatal("fully rolled-back key should be dropped from the store")
	}
}

func TestHasVersion(t *testing.T) {
	s := NewStore()
	k := Key{Model: "kv", ID: "x"}
	s.Put(k, fields("a"), 10, "r1")
	if !s.HasVersion(k, 10, "r1") {
		t.Fatal("existing version not found")
	}
	if s.HasVersion(k, 10, "r2") || s.HasVersion(k, 11, "r1") {
		t.Fatal("HasVersion matched wrong version")
	}
	s.Rollback(k, 5)
	if s.HasVersion(k, 10, "r1") {
		t.Fatal("rolled-back version still reported")
	}
}

func TestImmutableSurvivesRollback(t *testing.T) {
	s := NewStore()
	k := Key{Model: "ver", ID: "v1"}
	if err := s.PutImmutable(k, fields("a"), 10, "r1"); err != nil {
		t.Fatal(err)
	}
	if n := s.Rollback(k, 0); n != 0 {
		t.Fatal("immutable object must survive rollback")
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("immutable object missing after rollback")
	}
	// Idempotent re-put with identical fields is fine (replay).
	if err := s.PutImmutable(k, fields("a"), 99, "r9"); err != nil {
		t.Fatal(err)
	}
	// Different value is an application bug.
	if err := s.PutImmutable(k, fields("z"), 99, "r9"); err == nil {
		t.Fatal("conflicting immutable put must fail")
	}
	// Mutable writes to an immutable object must fail.
	if err := s.Put(k, fields("z"), 99, "r9"); err == nil {
		t.Fatal("mutable overwrite of immutable object must fail")
	}
}

func TestIDsAndIDsAt(t *testing.T) {
	s := NewStore()
	s.Put(Key{"kv", "a"}, fields("1"), 10, "r1")
	s.Put(Key{"kv", "b"}, fields("2"), 20, "r2")
	s.Delete(Key{"kv", "a"}, 30, "r3")
	s.Put(Key{"other", "z"}, fields("9"), 10, "r1")

	if got := s.IDs("kv"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("IDs = %v, want [b]", got)
	}
	if got := s.IDsAt("kv", 25); len(got) != 2 {
		t.Fatalf("IDsAt(25) = %v, want [a b]", got)
	}
	if got := s.IDsAt("kv", 15); len(got) != 1 || got[0] != "a" {
		t.Fatalf("IDsAt(15) = %v, want [a]", got)
	}
}

func TestScanHashChangesWithMembershipAndValue(t *testing.T) {
	s := NewStore()
	s.Put(Key{"kv", "a"}, fields("1"), 10, "r1")
	h1 := s.ScanHashAtExcluding("kv", 100, "")
	s.Put(Key{"kv", "b"}, fields("2"), 20, "r2")
	h2 := s.ScanHashAtExcluding("kv", 100, "")
	if h1 == h2 {
		t.Fatal("membership change must alter scan hash")
	}
	s.Put(Key{"kv", "a"}, fields("9"), 30, "r3")
	h3 := s.ScanHashAtExcluding("kv", 100, "")
	if h2 == h3 {
		t.Fatal("value change must alter scan hash")
	}
	// At a historical timestamp the hash is unaffected by later writes.
	if s.ScanHashAtExcluding("kv", 15, "") != h1 {
		t.Fatal("historical scan hash changed")
	}
}

func TestVersionHashStableAndSensitive(t *testing.T) {
	v1 := Version{Fields: map[string]string{"a": "1", "b": "2"}}
	v2 := Version{Fields: map[string]string{"b": "2", "a": "1"}}
	if v1.Hash() != v2.Hash() {
		t.Fatal("hash must not depend on map order")
	}
	v3 := Version{Fields: map[string]string{"a": "1", "b": "3"}}
	if v1.Hash() == v3.Hash() {
		t.Fatal("hash must reflect values")
	}
	if (Version{Deleted: true}).Hash() != MissingHash {
		t.Fatal("tombstone must hash to MissingHash")
	}
}

func TestConfidentialMarking(t *testing.T) {
	s := NewStore()
	k := Key{"kv", "secret"}
	if s.IsConfidential(k) {
		t.Fatal("unmarked object reported confidential")
	}
	s.MarkConfidential(k)
	if !s.IsConfidential(k) {
		t.Fatal("marked object not reported confidential")
	}
}

func TestGCSquashesOldVersions(t *testing.T) {
	s := NewStore()
	k := Key{"kv", "x"}
	for i := 1; i <= 5; i++ {
		s.Put(k, fields(fmt.Sprint(i)), int64(i*10), fmt.Sprintf("r%d", i))
	}
	s.GC(35)
	vs := s.Versions(k)
	if len(vs) != 3 { // base (ts=30) + 40 + 50
		t.Fatalf("after GC have %d versions, want 3", len(vs))
	}
	if v, ok := s.GetAt(k, 35); !ok || v.Fields["val"] != "3" {
		t.Fatalf("GC must keep a base version; GetAt(35) = %+v %v", v, ok)
	}
	if s.GCBefore() != 35 {
		t.Fatalf("GCBefore = %d", s.GCBefore())
	}
}

func TestVersionBytesAccounting(t *testing.T) {
	s := NewStore()
	if s.VersionBytes() != 0 {
		t.Fatal("fresh store should have zero version bytes")
	}
	s.Put(Key{"kv", "x"}, fields("hello"), 10, "r1")
	if s.VersionBytes() <= 0 {
		t.Fatal("writes must accrue version bytes")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	k := Key{"kv", "x"}
	s.Put(k, fields("a"), 10, "r1")
	v, _ := s.Get(k)
	v.Fields["val"] = "mutated"
	v2, _ := s.Get(k)
	if v2.Fields["val"] != "a" {
		t.Fatal("Get leaked internal state")
	}
}

func TestPropertyRollbackRestoresGetAt(t *testing.T) {
	// Property: for any sequence of writes at increasing timestamps,
	// rolling back to time T makes Get equal GetAt(T) before rollback.
	f := func(vals []uint8, cut uint8) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewStore()
		k := Key{"kv", "x"}
		for i, v := range vals {
			s.Put(k, fields(fmt.Sprint(v)), int64(i+1)*10, fmt.Sprintf("r%d", i))
		}
		cutTS := int64(cut%uint8(len(vals)+1)) * 10
		before, okBefore := s.GetAt(k, cutTS)
		s.Rollback(k, cutTS)
		after, okAfter := s.Get(k)
		if okBefore != okAfter {
			return false
		}
		return !okBefore || before.Fields["val"] == after.Fields["val"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
