package vdb

import (
	"testing"
)

// replayDump loads a Dump as a checkpoint restore does: every version
// through ApplyChange's put, the path WAL replay takes.
func replayDump(s *Store, dump []ObjectDump) error {
	for _, od := range dump {
		for i := range od.Versions {
			if err := s.ApplyChange(Change{Kind: "put", Key: od.Key, Version: &od.Versions[i]}); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	s := NewStore()
	s.Put(Key{"kv", "a"}, fields("1"), 10, "r1")
	s.Put(Key{"kv", "a"}, fields("2"), 20, "r2")
	s.Delete(Key{"kv", "b"}, 30, "r3")
	s.PutImmutable(Key{"ver", "v1"}, fields("x"), 15, "r1")

	dump := s.Dump()
	if len(dump) != 3 {
		t.Fatalf("dump has %d objects", len(dump))
	}
	// Deterministic key order.
	if dump[0].Key.Model != "kv" || dump[0].Key.ID != "a" || dump[2].Key.Model != "ver" {
		t.Fatalf("dump order: %+v", []Key{dump[0].Key, dump[1].Key, dump[2].Key})
	}

	s2 := NewStore()
	if err := replayDump(s2, dump); err != nil {
		t.Fatal(err)
	}
	// Values, time travel, tombstones, and immutability all survive.
	if v, ok := s2.GetAt(Key{"kv", "a"}, 15); !ok || v.Fields["val"] != "1" {
		t.Fatalf("restored GetAt = %+v %v", v, ok)
	}
	if v, ok := s2.Get(Key{"kv", "a"}); !ok || v.Fields["val"] != "2" {
		t.Fatalf("restored Get = %+v %v", v, ok)
	}
	if _, ok := s2.Get(Key{"kv", "b"}); ok {
		t.Fatal("tombstone lost in restore")
	}
	if n := s2.Rollback(Key{"ver", "v1"}, 0); n != 0 {
		t.Fatal("immutability lost in restore")
	}
	// Cached hashes recomputed: dependency checks still work.
	if s2.HashAtExcluding(Key{"kv", "a"}, 25, "") != s.HashAtExcluding(Key{"kv", "a"}, 25, "") {
		t.Fatal("hash mismatch after restore")
	}
	if s2.VersionBytes() != s.VersionBytes() {
		t.Fatalf("accounting rebuilt as %d bytes, original %d", s2.VersionBytes(), s.VersionBytes())
	}
}

func TestLatestOnlyStoreSemantics(t *testing.T) {
	s := NewStoreLatestOnly()
	k := Key{"kv", "x"}
	s.Put(k, fields("a"), 10, "r1")
	s.Put(k, fields("b"), 20, "r2")
	if n := len(s.Versions(k)); n != 1 {
		t.Fatalf("latest-only store kept %d versions", n)
	}
	if v, _ := s.Get(k); v.Fields["val"] != "b" {
		t.Fatal("latest write must win")
	}
	// Immutable objects still work and are not overwritten.
	s.PutImmutable(Key{"ver", "v"}, fields("x"), 30, "r3")
	if err := s.Put(Key{"ver", "v"}, fields("y"), 40, "r4"); err == nil {
		t.Fatal("immutable overwrite must fail even in latest-only mode")
	}
}

func TestVersionsAccessor(t *testing.T) {
	s := NewStore()
	k := Key{"kv", "x"}
	s.Put(k, fields("a"), 10, "r1")
	s.Put(k, fields("b"), 20, "r2")
	vs := s.Versions(k)
	if len(vs) != 2 || vs[0].Fields["val"] != "a" {
		t.Fatalf("versions = %+v", vs)
	}
	// Copies, not aliases.
	vs[0].Fields["val"] = "mutated"
	if v, _ := s.GetAt(k, 10); v.Fields["val"] != "a" {
		t.Fatal("Versions leaked internal state")
	}
}

func TestScanHashAtExcludingMasksOwnWrites(t *testing.T) {
	s := NewStore()
	s.Put(Key{"kv", "a"}, fields("1"), 10, "r1")
	base := s.ScanHashAtExcluding("kv", 100, "r-none")
	// r2 writes b; excluding r2 the scan looks unchanged.
	s.Put(Key{"kv", "b"}, fields("2"), 20, "r2")
	if got := s.ScanHashAtExcluding("kv", 100, "r2"); got != base {
		t.Fatal("own write must be masked from scan hash")
	}
	if got := s.ScanHashAtExcluding("kv", 100, "r-none"); got == base {
		t.Fatal("another writer's change must alter the scan hash")
	}
}
