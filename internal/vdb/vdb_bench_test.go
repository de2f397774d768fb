package vdb

import (
	"fmt"
	"strconv"
	"testing"
)

func benchStore(nKeys, versionsPerKey int) *Store {
	s := NewStore()
	ts := int64(0)
	for v := 0; v < versionsPerKey; v++ {
		for k := 0; k < nKeys; k++ {
			ts += 10
			s.Put(Key{"kv", fmt.Sprintf("k%04d", k)}, fields(fmt.Sprintf("v%d", v)), ts, fmt.Sprintf("r%d", ts))
		}
	}
	return s
}

func BenchmarkPut(b *testing.B) {
	s := NewStore()
	f := fields("value")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Put(Key{"kv", "x"}, f, int64(i+1)*10, fmt.Sprintf("r%d", i))
	}
}

// BenchmarkPutNewKeys creates an object in a model of n members and rolls
// it back out, so n stays put. The IDs are idgen-shaped and not
// zero-padded, so each lands inside the member order: the member index
// moves at most one block per insert, and the cost stays flat from 1k to
// 100k members.
func BenchmarkPutNewKeys(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			s := NewStore()
			f := fields("value")
			for i := 0; i < n; i++ {
				s.Put(Key{"question", fmt.Sprintf("q-askbot-req-%d.0", i)}, f, int64(i+1), "seed")
			}
			ts := int64(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts++
				k := Key{"question", "q-askbot-req-" + strconv.Itoa(n+i) + ".0"}
				s.Put(k, f, ts, "r")
				s.Rollback(k, ts-1)
			}
		})
	}
}

func BenchmarkGetAt(b *testing.B) {
	s := benchStore(100, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GetAt(Key{"kv", "k0050"}, int64(i%25000)+1)
	}
}

func BenchmarkHashAtExcluding(b *testing.B) {
	s := benchStore(100, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.HashAtExcluding(Key{"kv", "k0050"}, 1<<40, "r123")
	}
}

// BenchmarkScanHashAtExcluding compares the indexed single-lock fingerprint
// against the retained pre-index reference (full map walk + sort + one lock
// round-trip per member). The scan-dependency path runs on every List query
// and on every scan re-check during repair.
func BenchmarkScanHashAtExcluding(b *testing.B) {
	for _, n := range []int{100, 1000} {
		s := benchStore(n, 3)
		b.Run(fmt.Sprintf("indexed/keys=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ScanHashAtExcluding("kv", 1<<40, "r123")
			}
		})
		b.Run(fmt.Sprintf("linear/keys=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.scanHashAtExcludingLinear("kv", 1<<40, "r123")
			}
		})
	}
}

// BenchmarkVersionHash measures the uncached fingerprint path: tombstones
// must not allocate at all, and small live versions sort their field keys
// in a stack buffer instead of a fresh slice.
func BenchmarkVersionHash(b *testing.B) {
	b.Run("tombstone", func(b *testing.B) {
		v := Version{Deleted: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v.Hash() != MissingHash {
				b.Fatal("tombstone must hash to MissingHash")
			}
		}
	})
	b.Run("live", func(b *testing.B) {
		v := Version{Fields: map[string]string{"title": "benchmark", "body": "some typical body text", "author": "u1"}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.hash = 0
			if v.Hash() == MissingHash {
				b.Fatal("live version must not hash to MissingHash")
			}
		}
	})
}

func BenchmarkRollbackRedo(b *testing.B) {
	s := benchStore(1, 100)
	k := Key{"kv", "k0000"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Roll back half the history, then restore it.
		b.StopTimer()
		saved := s.Versions(k)
		b.StartTimer()
		s.Rollback(k, saved[len(saved)/2].TS)
		b.StopTimer()
		for _, v := range saved[len(saved)/2+1:] {
			s.Put(k, v.Fields, v.TS, v.ReqID)
		}
		b.StartTimer()
	}
}
