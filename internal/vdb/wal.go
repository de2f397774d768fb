package vdb

import "fmt"

// Change is one store mutation, emitted to the change sink at the moment it
// is applied (under the store lock). The WAL layer groups changes into
// per-commit change sets; ApplyChange replays them during recovery.
type Change struct {
	// Kind is "put" (a version written, including tombstones and immutable
	// versions), "rollback", or "gc".
	Kind string `json:"kind"`
	// Key names the object for put/rollback.
	Key Key `json:"key,omitempty"`
	// Version is the written version for put.
	Version *Version `json:"version,omitempty"`
	// TS is the rollback point for rollback, or the horizon for gc.
	TS int64 `json:"ts,omitempty"`
}

// SetChangeSink installs fn to observe every mutation. fn runs with the
// store lock held and must not call back into the store. Pass nil to detach.
func (s *Store) SetChangeSink(fn func(Change)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = fn
}

// emitLocked forwards a change to the sink, if attached. Caller holds mu.
func (s *Store) emitLocked(ch Change) {
	if s.sink != nil {
		s.sink(ch)
	}
}

func (s *Store) emitPutLocked(k Key, nv Version) {
	if s.sink == nil {
		return
	}
	cp := nv.clone()
	s.sink(Change{Kind: "put", Key: k, Version: &cp})
}

// ApplyChange replays one logged change during recovery. It never emits to
// the sink, and it is idempotent: recovery may replay entries whose effects
// a checkpoint snapshot already contains (the checkpoint sequence is read
// before the snapshot is captured), so re-applying must be harmless.
func (s *Store) ApplyChange(ch Change) error {
	switch ch.Kind {
	case "put":
		if ch.Version == nil {
			return fmt.Errorf("vdb: put change without version")
		}
		return s.applyPut(ch.Key, *ch.Version)
	case "rollback":
		s.mu.Lock()
		defer s.mu.Unlock()
		s.rollbackLocked(ch.Key, ch.TS)
		return nil
	case "gc":
		s.mu.Lock()
		defer s.mu.Unlock()
		s.gcLocked(ch.TS)
		return nil
	}
	return fmt.Errorf("vdb: unknown change kind %q", ch.Kind)
}

// applyPut inserts a replayed version. WAL order equals original mutation
// order, so a version older than the object's newest can only mean the
// checkpoint already contains it — treated as a no-op rather than the
// "write into the past" error live puts get.
func (s *Store) applyPut(k Key, v Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v.Fields = copyFields(v.Fields)
	v.hash = 0
	v.hash = v.Hash()
	vs := s.objects[k]
	if len(vs) > 0 {
		last := vs[len(vs)-1]
		if last.Immutable {
			if v.Immutable && last.Hash() == v.Hash() {
				return nil // already applied
			}
			return fmt.Errorf("vdb: replay would overwrite immutable object %v", k)
		}
		if v.TS < last.TS {
			return nil // already reflected in the checkpoint snapshot
		}
		if v.TS == last.TS {
			if last.ReqID != v.ReqID {
				return fmt.Errorf("vdb: replay conflict on %v at ts %d: %s vs %s", k, v.TS, last.ReqID, v.ReqID)
			}
			vs[len(vs)-1] = v
			s.versionBytes += approxSize(k, v.Fields)
			return nil
		}
	}
	s.objects[k] = append(vs, v)
	s.versionBytes += approxSize(k, v.Fields)
	s.indexInsertLocked(k)
	return nil
}
