package vdb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// idOracle is the flat sorted []string the idSet replaced.
type idOracle []string

func (o *idOracle) insert(id string) bool {
	i := sort.SearchStrings(*o, id)
	if i < len(*o) && (*o)[i] == id {
		return false
	}
	*o = append(*o, "")
	copy((*o)[i+1:], (*o)[i:])
	(*o)[i] = id
	return true
}

func (o *idOracle) remove(id string) bool {
	i := sort.SearchStrings(*o, id)
	if i == len(*o) || (*o)[i] != id {
		return false
	}
	*o = append((*o)[:i], (*o)[i+1:]...)
	return true
}

// idSetOp applies one insert or remove to both the set and the oracle and
// fails if the reported result or the membership afterwards disagree.
func idSetOp(t testing.TB, s *idSet, o *idOracle, insert bool, id string) {
	t.Helper()
	var got, want bool
	if insert {
		got, want = s.insert(id), o.insert(id)
	} else {
		got, want = s.remove(id), o.remove(id)
	}
	if got != want {
		t.Fatalf("insert=%v %q: set reported %v, oracle %v", insert, id, got, want)
	}
	if s.has(id) != insert {
		t.Fatalf("insert=%v %q: has = %v", insert, id, s.has(id))
	}
}

// idSetMatches fails unless the set keeps its layout invariants and holds
// exactly the oracle's IDs in the oracle's order.
func idSetMatches(t testing.TB, s *idSet, o idOracle) {
	t.Helper()
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	if s.len() != len(o) {
		t.Fatalf("len %d, oracle %d", s.len(), len(o))
	}
	i := 0
	for _, b := range s.blocks {
		for _, id := range b {
			if id != o[i] {
				t.Fatalf("member %d = %q, oracle %q", i, id, o[i])
			}
			i++
		}
	}
}

// TestIDSet drives random insert/remove sequences through block splits,
// blocks emptying and the set emptying, against the flat-slice oracle,
// checking the whole set after every operation.
func TestIDSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s idSet
	var o idOracle
	idSetOp := func(t *testing.T, s *idSet, o *idOracle, insert bool, id string) {
		t.Helper()
		idSetOp(t, s, o, insert, id)
		idSetMatches(t, s, *o)
	}
	// idgen-shaped, non-padded IDs: consecutive creates land all over the
	// sort order.
	for i := 0; i < 3*idBlockCap; i++ {
		idSetOp(t, &s, &o, true, fmt.Sprintf("q-askbot-req-%d.0", i))
	}
	if len(s.blocks) < 3 {
		t.Fatalf("%d members in %d blocks: no splits exercised", s.len(), len(s.blocks))
	}
	// Empty one block outright: every member of block 1 goes.
	nblocks := len(s.blocks)
	for _, id := range append([]string(nil), s.blocks[1]...) {
		idSetOp(t, &s, &o, false, id)
	}
	if len(s.blocks) != nblocks-1 {
		t.Fatalf("emptied block kept: %d blocks, had %d", len(s.blocks), nblocks)
	}
	// Random churn over a small key space, so removes hit and miss and
	// blocks fill, split and drain repeatedly.
	for i := 0; i < 20000; i++ {
		id := fmt.Sprintf("k%d", rng.Intn(1500))
		idSetOp(t, &s, &o, rng.Intn(3) != 0, id)
	}
	// Drain to empty, then reuse.
	for len(o) > 0 {
		idSetOp(t, &s, &o, false, o[rng.Intn(len(o))])
	}
	if len(s.blocks) != 0 {
		t.Fatalf("empty set holds %d blocks", len(s.blocks))
	}
	idSetOp(t, &s, &o, false, "absent")
	idSetOp(t, &s, &o, true, "again")
}

// FuzzIDSet: each input byte pair is one operation on a key space of 1024
// IDs (four full blocks), checked against the oracle after every step and
// in full every 16 steps and at the end. Inputs past 8*idBlockCap bytes
// are cut there: 1024 operations already fill and drain every block.
func FuzzIDSet(f *testing.F) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("id-%d", i)
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add(make([]byte, 2*idBlockCap+8))
	seq := make([]byte, 0, 4*idBlockCap)
	for i := 0; i < 2*idBlockCap; i++ {
		seq = append(seq, byte(i), byte(i>>8)&1)
	}
	f.Add(seq)
	// The same IDs inserted, then removed: blocks drain and drop.
	for i := 0; i < 2*idBlockCap; i++ {
		seq = append(seq, byte(i), byte(i>>8)&1|0x80)
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*idBlockCap {
			data = data[:8*idBlockCap]
		}
		var s idSet
		var o idOracle
		for i := 0; i+1 < len(data); i += 2 {
			key := int(data[i]) | int(data[i+1]&3)<<8
			idSetOp(t, &s, &o, data[i+1]&0x80 == 0, keys[key])
			if i%32 == 0 {
				idSetMatches(t, &s, o)
			}
		}
		idSetMatches(t, &s, o)
	})
}
