// Index-coherence verification. The per-model secondary indexes (sorted
// member sets, incrementally maintained scan fingerprints) are derived
// state: every mutation path — Put, Delete, Rollback, GC, Restore, WAL
// replay — must leave them consistent with the primary object map, or scans
// silently return wrong answers long after the bug that drifted them.
// VerifyIndexes makes that contract checkable: it recomputes what the
// indexes claim from the primary state and reports the first divergence.
// The controller runs it at repair-wave start when
// core.Faults.StrictIndexes is set, turning a latent index bug into an
// immediate loud failure.
package vdb

import "fmt"

// VerifyIndexes cross-checks the per-model secondary indexes against the
// primary object map and returns the first inconsistency found (nil when
// coherent). It verifies that every member set keeps its block layout (no
// empty or overfull block) and is sorted and duplicate-free across blocks,
// that member sets and the object map name exactly the same keys, and that
// each model's scan fingerprint equals the recomputed contribution sum of its
// live members. lastTS is not checked: it is a fast-path high-water mark that
// Rollback legitimately leaves above any remaining version.
//
// The check is a pure read of store state (object maps, member lists,
// fingerprints); it takes the store lock but performs no mutation, minting,
// or I/O, so enabling it does not perturb deterministic schedules.
func (s *Store) VerifyIndexes() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Member sets: well-formed, sorted, unique, and every member backed by
	// an object.
	for m, idx := range s.models {
		if err := idx.ids.check(); err != nil {
			return fmt.Errorf("vdb: model %q member set: %v", m, err)
		}
		for _, b := range idx.ids.blocks {
			for _, id := range b {
				if len(s.objects[Key{Model: m, ID: id}]) == 0 {
					return fmt.Errorf("vdb: model %q indexes member %q but the store holds no versions for it", m, id)
				}
			}
		}
	}
	// Every object is a member of its model's index. Together with the pass
	// above (every member is an object, sets sorted and unique) this makes
	// each member set exactly the model's key set.
	for k, vs := range s.objects {
		if len(vs) == 0 {
			return fmt.Errorf("vdb: object %s/%s present with zero versions", k.Model, k.ID)
		}
		idx := s.models[k.Model]
		if idx == nil {
			return fmt.Errorf("vdb: object %s/%s has no model index", k.Model, k.ID)
		}
		if !idx.ids.has(k.ID) {
			return fmt.Errorf("vdb: object %s/%s missing from model %q member list", k.Model, k.ID, k.Model)
		}
	}
	// Scan fingerprints: the incrementally maintained curFP must equal the
	// wrapping contribution sum recomputed from the live members.
	for m, idx := range s.models {
		var want uint64
		for _, b := range idx.ids.blocks {
			for _, id := range b {
				k := Key{Model: m, ID: id}
				want += liveContribLocked(k, s.objects[k])
			}
		}
		if want != idx.curFP {
			return fmt.Errorf("vdb: model %q scan fingerprint drift: index holds %#x, live members sum to %#x", m, idx.curFP, want)
		}
	}
	return nil
}

// CorruptScanFPForTest desynchronizes a model's scan fingerprint so tests
// outside this package can prove the coherence guard fires. Creating the
// model index on demand means the corruption always takes effect, even for
// a model the store has never seen. Test hook only.
func (s *Store) CorruptScanFPForTest(model string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.model(model).curFP++
}

// DropIndexEntryForTest removes an object from its model's member set
// without touching the object itself, simulating a lost index insert. Test
// hook only.
func (s *Store) DropIndexEntryForTest(k Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.indexRemoveLocked(k)
}
