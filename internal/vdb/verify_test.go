package vdb

import (
	"fmt"
	"strings"
	"testing"
)

// buildVerifyStore exercises every index-mutating path: puts, overwrites,
// tombstones, rollback (partial and to-zero), and GC.
func buildVerifyStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Put(Key{Model: "user", ID: "u1"}, map[string]string{"name": "ada"}, 1, "r1"))
	must(s.Put(Key{Model: "user", ID: "u2"}, map[string]string{"name": "bob"}, 2, "r2"))
	must(s.Put(Key{Model: "user", ID: "u1"}, map[string]string{"name": "ada2"}, 3, "r3"))
	must(s.Put(Key{Model: "msg", ID: "m1"}, map[string]string{"body": "hi"}, 4, "r4"))
	must(s.Delete(Key{Model: "user", ID: "u2"}, 5, "r5"))
	must(s.Put(Key{Model: "msg", ID: "m2"}, map[string]string{"body": "yo"}, 6, "r6"))
	s.Rollback(Key{Model: "user", ID: "u1"}, 2) // drop the ts=3 overwrite
	s.Rollback(Key{Model: "msg", ID: "m2"}, 5)  // drop m2 entirely
	s.GC(2)
	return s
}

func TestVerifyIndexesHealthy(t *testing.T) {
	s := buildVerifyStore(t)
	if err := s.VerifyIndexes(); err != nil {
		t.Fatalf("healthy store failed verification: %v", err)
	}
	if err := NewStore().VerifyIndexes(); err != nil {
		t.Fatalf("empty store failed verification: %v", err)
	}
}

func TestVerifyIndexesDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*Store)
		want    string
	}{
		{
			name:    "dropped member",
			corrupt: func(s *Store) { s.indexRemoveLocked(Key{Model: "msg", ID: "m1"}) },
			want:    "missing from model",
		},
		{
			name: "orphan member",
			corrupt: func(s *Store) {
				s.indexInsertLocked(Key{Model: "user", ID: "ghost"})
			},
			want: "no versions",
		},
		{
			name: "unsorted member list",
			corrupt: func(s *Store) {
				b := s.models["user"].ids.blocks[0]
				if len(b) < 2 {
					t.Skip("need two members")
				}
				b[0], b[1] = b[1], b[0]
			},
			want: "unsorted",
		},
		{
			// Each block stays sorted on its own; only the order between
			// two blocks breaks.
			name: "unsorted across blocks",
			corrupt: func(s *Store) {
				for i := 0; i < idBlockCap; i++ {
					if err := s.Put(Key{Model: "user", ID: fmt.Sprintf("v%d", i)}, map[string]string{"n": "x"}, 10, "r10"); err != nil {
						t.Fatal(err)
					}
				}
				blocks := s.models["user"].ids.blocks
				if len(blocks) < 2 {
					t.Fatalf("want two blocks, have %d", len(blocks))
				}
				lo, hi := blocks[0], blocks[1]
				lo[len(lo)-1], hi[0] = hi[0], lo[len(lo)-1]
			},
			want: "unsorted",
		},
		{
			name: "empty block",
			corrupt: func(s *Store) {
				ids := &s.models["user"].ids
				ids.blocks = append(ids.blocks, []string{})
			},
			want: "empty block",
		},
		{
			name:    "drop-entry test hook",
			corrupt: func(s *Store) { s.DropIndexEntryForTest(Key{Model: "user", ID: "u1"}) },
			want:    "missing from model",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := buildVerifyStore(t)
			if err := s.VerifyIndexes(); err != nil {
				t.Fatalf("pre-corruption: %v", err)
			}
			tc.corrupt(s)
			err := s.VerifyIndexes()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
