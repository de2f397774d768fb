// Index-coherence verification. The per-model secondary indexes (sorted
// member sets) are derived state: every mutation path — Put, Delete,
// Rollback, GC, WAL and checkpoint replay — must leave them consistent with
// the primary object map, or scans silently return wrong answers long after
// the bug that drifted them.
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
// and that member sets and the object map name exactly the same keys.
//
// The check is a pure read of store state (object maps, member lists); it
// takes the store lock but performs no mutation, minting, or I/O, so
// enabling it does not perturb deterministic schedules.
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
	return nil
}

// DropIndexEntryForTest removes an object from its model's member set
// without touching the object itself, simulating a lost index insert. Test
// hook only.
func (s *Store) DropIndexEntryForTest(k Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.indexRemoveLocked(k)
}
