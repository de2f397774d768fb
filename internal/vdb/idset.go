package vdb

import (
	"fmt"
	"sort"
)

// idBlockCap is the capacity of one idSet block. An insert or remove moves
// at most this many IDs; the block list itself holds one slice header per
// idBlockCap/2..idBlockCap members.
const idBlockCap = 256

// idSet is a sorted set of object IDs kept as a list of sorted blocks, each
// holding 1..idBlockCap IDs, with every ID of block i below every ID of
// block i+1. Inserting into a flat sorted slice moves half the slice on
// average, and idgen's IDs are not zero-padded ("req-15000" sorts before
// "req-2"), so a model's creates land all over its ID order: n creates
// would cost O(n²) moves. Here an insert moves IDs only within its block.
type idSet struct {
	blocks [][]string
	n      int
}

// len returns the number of IDs in the set.
func (s *idSet) len() int { return s.n }

// blockFor returns the index of the block id belongs in: the first block
// whose last ID is >= id, or the last block when id exceeds them all. The
// set must be non-empty.
func (s *idSet) blockFor(id string) int {
	bi := sort.Search(len(s.blocks), func(i int) bool {
		b := s.blocks[i]
		return b[len(b)-1] >= id
	})
	if bi == len(s.blocks) {
		bi--
	}
	return bi
}

// has reports whether id is in the set.
func (s *idSet) has(id string) bool {
	if s.n == 0 {
		return false
	}
	b := s.blocks[s.blockFor(id)]
	i := sort.SearchStrings(b, id)
	return i < len(b) && b[i] == id
}

// insert adds id and reports whether it was absent. A full block splits in
// half before the insert.
func (s *idSet) insert(id string) bool {
	if s.n == 0 {
		b := make([]string, 1, idBlockCap)
		b[0] = id
		s.blocks = append(s.blocks, b)
		s.n = 1
		return true
	}
	bi := s.blockFor(id)
	b := s.blocks[bi]
	i := sort.SearchStrings(b, id)
	if i < len(b) && b[i] == id {
		return false
	}
	if len(b) == idBlockCap {
		half := idBlockCap / 2
		hi := make([]string, idBlockCap-half, idBlockCap)
		copy(hi, b[half:])
		clear(b[half:])
		b = b[:half]
		s.blocks = append(s.blocks, nil)
		copy(s.blocks[bi+2:], s.blocks[bi+1:])
		s.blocks[bi], s.blocks[bi+1] = b, hi
		if i > half {
			bi, b, i = bi+1, hi, i-half
		}
	}
	b = append(b, "")
	copy(b[i+1:], b[i:])
	b[i] = id
	s.blocks[bi] = b
	s.n++
	return true
}

// remove drops id and reports whether it was present. A block left empty is
// dropped from the list.
func (s *idSet) remove(id string) bool {
	if s.n == 0 {
		return false
	}
	bi := s.blockFor(id)
	b := s.blocks[bi]
	i := sort.SearchStrings(b, id)
	if i == len(b) || b[i] != id {
		return false
	}
	copy(b[i:], b[i+1:])
	b[len(b)-1] = ""
	b = b[:len(b)-1]
	s.n--
	if len(b) > 0 {
		s.blocks[bi] = b
		return true
	}
	copy(s.blocks[bi:], s.blocks[bi+1:])
	s.blocks[len(s.blocks)-1] = nil
	s.blocks = s.blocks[:len(s.blocks)-1]
	return true
}

// check verifies the layout invariants: no empty block, no block over
// capacity, IDs strictly increasing across the whole set (within and
// between blocks), and the count matching the blocks.
func (s *idSet) check() error {
	n := 0
	prev, first := "", true
	for bi, b := range s.blocks {
		if len(b) == 0 {
			return fmt.Errorf("empty block %d", bi)
		}
		if len(b) > idBlockCap {
			return fmt.Errorf("block %d holds %d IDs, over the %d capacity", bi, len(b), idBlockCap)
		}
		for i, id := range b {
			if !first && prev >= id {
				return fmt.Errorf("unsorted at block %d index %d: %q then %q", bi, i, prev, id)
			}
			prev, first = id, false
		}
		n += len(b)
	}
	if n != s.n {
		return fmt.Errorf("blocks hold %d IDs, count says %d", n, s.n)
	}
	return nil
}
