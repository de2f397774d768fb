// Package vdb implements the versioned database underlying Aire's local
// repair (§2.1).
//
// Like Warp's versioned database, the store keeps every version of every
// object: normal-operation writes append versions, repair rolls objects back
// by removing versions after a point in time, and re-execution reads the
// store "as of" the replayed request's logical timestamp. Versions carry the
// identity of the request that wrote them so the repair engine can tell
// which writer produced the state a reader observed.
//
// Objects belonging to application-versioned models (the paper's
// AppVersionedModel, §6) are immutable and are never rolled back; the ORM
// layer marks them with PutImmutable.
package vdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Key names an object: a model (table) plus an object ID.
type Key struct {
	Model string
	ID    string
}

func (k Key) String() string { return k.Model + "/" + k.ID }

// Version is one immutable snapshot of an object's fields.
type Version struct {
	// TS is the logical timestamp of the write (the writing request's
	// execution time on the service's timeline).
	TS int64
	// ReqID identifies the request that performed the write.
	ReqID string
	// Deleted marks a tombstone: the object does not exist at and after TS
	// until a later Put revives it.
	Deleted bool
	// Immutable marks an AppVersionedModel object; such versions survive
	// rollback (§6: "AppVersionedModel objects are not rolled back during
	// repair").
	Immutable bool
	// Fields holds the object's field values.
	Fields map[string]string

	// hash caches the value fingerprint, computed on insert.
	hash uint64
}

// FNV-64a constants, inlined so the hot hashing paths need no hash.Hash64
// allocation per call.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// Hash returns a compact fingerprint of the version's visible value, used by
// the repair engine's precise read-dependency checks: a reader is affected
// only if the value it would read now differs from the value it read
// originally. Tombstones short-circuit to MissingHash before any work.
func (v Version) Hash() uint64 {
	if v.Deleted {
		return 0
	}
	if v.hash != 0 {
		return v.hash
	}
	// Small field maps (the overwhelmingly common case) sort in a
	// stack-resident array instead of a fresh heap slice per call.
	var kbuf [16]string
	keys := kbuf[:0]
	if len(v.Fields) > len(kbuf) {
		keys = make([]string, 0, len(v.Fields))
	}
	for k := range v.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnvOffset64
	for _, k := range keys {
		h = fnvString(h, k)
		h = fnvByte(h, 0)
		h = fnvString(h, v.Fields[k])
		h = fnvByte(h, 1)
	}
	// Ensure a live version never hashes to the "missing" sentinel 0.
	if h == 0 {
		h = 1
	}
	return h
}

// MissingHash is the read-dependency fingerprint recorded when a read found
// no live object.
const MissingHash uint64 = 0

// modelIndex is the per-model secondary index: the sorted member set of
// every object of the model with at least one version (live or
// tombstoned). It lets IDs/IDsAt/ListAt/ScanHashAtExcluding walk only the
// model's members instead of the whole object map.
type modelIndex struct {
	ids idSet
}

// scanContrib is one member's contribution to a model's scan fingerprint.
// Contributions combine by wrapping addition, so the fingerprint is
// order-independent.
func scanContrib(id string, vh uint64) uint64 {
	h := fnvString(fnvOffset64, id)
	h = fnvByte(h, 0)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(vh>>(8*i)))
	}
	return h
}

// Store is a multi-version object store. The zero value is not usable;
// create one with NewStore. Store is safe for concurrent use.
type Store struct {
	mu           sync.RWMutex
	objects      map[Key][]Version // versions sorted by TS ascending
	models       map[string]*modelIndex
	confidential map[Key]bool
	versionBytes int64 // total encoded size of versions ever written (Table 4 "DB" accounting)
	gcBefore     int64
	latestOnly   bool
	// sink observes every mutation for write-ahead logging (see wal.go).
	sink func(Change)
}

// NewStore returns an empty versioned store.
func NewStore() *Store {
	return &Store{
		objects:      make(map[Key][]Version),
		models:       make(map[string]*modelIndex),
		confidential: make(map[Key]bool),
	}
}

// model returns (creating if needed) the model's index. Caller holds mu.
func (s *Store) model(name string) *modelIndex {
	idx := s.models[name]
	if idx == nil {
		idx = &modelIndex{}
		s.models[name] = idx
	}
	return idx
}

// indexInsertLocked adds the object to its model's member set (no-op if
// already present). Caller holds mu.
func (s *Store) indexInsertLocked(k Key) {
	s.model(k.Model).ids.insert(k.ID)
}

// indexRemoveLocked drops the object from its model's member set (when its
// last version is removed). Caller holds mu.
func (s *Store) indexRemoveLocked(k Key) {
	if idx := s.models[k.Model]; idx != nil {
		idx.ids.remove(k.ID)
	}
}

// NewStoreLatestOnly returns a store that keeps only the newest version of
// each object, emulating a plain (non-versioned) database. It exists solely
// as the "without Aire" baseline of the Table 4 overhead experiments;
// rollback and time travel do not work on it.
func NewStoreLatestOnly() *Store {
	s := NewStore()
	s.latestOnly = true
	return s
}

// approxSize estimates the storage footprint of a version, mirroring the
// paper's per-request database checkpoint accounting (Table 4).
func approxSize(k Key, fields map[string]string) int64 {
	n := int64(len(k.Model) + len(k.ID) + 16)
	for f, v := range fields {
		n += int64(len(f) + len(v) + 2)
	}
	return n
}

// Put appends a new version of the object at timestamp ts, written by reqID.
// Writes must not travel into the past: ts must be >= the newest existing
// version's timestamp. Multiple writes by the same request at the same
// timestamp coalesce into one version (last write wins within a request).
func (s *Store) Put(k Key, fields map[string]string, ts int64, reqID string) error {
	return s.put(k, fields, ts, reqID, false, false)
}

// Delete appends a tombstone version at ts.
func (s *Store) Delete(k Key, ts int64, reqID string) error {
	return s.put(k, nil, ts, reqID, true, false)
}

// PutImmutable writes an AppVersionedModel object: exactly one version that
// survives rollback. Writing an existing immutable key with identical fields
// is a no-op; with different fields it is an error (immutable objects cannot
// change — the application must mint a fresh ID, §5.2).
func (s *Store) PutImmutable(k Key, fields map[string]string, ts int64, reqID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if vs := s.objects[k]; len(vs) > 0 {
		old := vs[len(vs)-1]
		if !old.Immutable {
			return fmt.Errorf("vdb: %v exists as a mutable object", k)
		}
		if old.Hash() == (Version{Fields: fields}).Hash() {
			return nil
		}
		return fmt.Errorf("vdb: immutable object %v already exists with different value", k)
	}
	nv := Version{TS: ts, ReqID: reqID, Immutable: true, Fields: copyFields(fields)}
	nv.hash = nv.Hash()
	s.objects[k] = []Version{nv}
	s.versionBytes += approxSize(k, fields)
	s.indexInsertLocked(k)
	s.emitPutLocked(k, nv)
	return nil
}

func (s *Store) put(k Key, fields map[string]string, ts int64, reqID string, deleted, immutable bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.objects[k]
	if s.latestOnly && len(vs) > 0 && !vs[len(vs)-1].Immutable {
		vs = vs[:0] // plain-database semantics: overwrite in place
	}
	if len(vs) > 0 {
		last := vs[len(vs)-1]
		if last.Immutable {
			return fmt.Errorf("vdb: cannot overwrite immutable object %v", k)
		}
		if ts < last.TS {
			return fmt.Errorf("vdb: write into the past: %v at ts %d < latest %d", k, ts, last.TS)
		}
		if ts == last.TS && last.ReqID == reqID {
			// Same request overwriting its own write: coalesce.
			nv := Version{TS: ts, ReqID: reqID, Deleted: deleted, Fields: copyFields(fields)}
			nv.hash = nv.Hash()
			vs[len(vs)-1] = nv
			s.versionBytes += approxSize(k, fields)
			s.emitPutLocked(k, nv)
			return nil
		}
		if ts == last.TS {
			return fmt.Errorf("vdb: conflicting writes to %v at ts %d by %s and %s", k, ts, last.ReqID, reqID)
		}
	}
	nv := Version{TS: ts, ReqID: reqID, Deleted: deleted, Fields: copyFields(fields)}
	nv.hash = nv.Hash()
	s.objects[k] = append(vs, nv)
	s.versionBytes += approxSize(k, fields)
	s.indexInsertLocked(k)
	s.emitPutLocked(k, nv)
	return nil
}

func copyFields(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Get returns a copy of the newest live version of the object.
func (s *Store) Get(k Key) (Version, bool) { return s.GetAt(k, math.MaxInt64) }

// GetAt returns a copy of the version of the object visible at timestamp ts:
// the newest version with TS <= ts. It reports false if the object did not
// exist or was deleted at ts.
func (s *Store) GetAt(k Key, ts int64) (Version, bool) {
	v, ok := s.ViewAt(k, ts)
	if !ok {
		return Version{}, false
	}
	return v.clone(), true
}

// ViewAt is GetAt without the copy: the returned Fields is the store's own
// map. Every write path (Put, PutImmutable, WAL and checkpoint replay)
// copies the caller's map in and no code path mutates a stored map
// afterwards, so the view stays valid and race-free for as long as the
// caller holds it. The caller must only read it.
func (s *Store) ViewAt(k Key, ts int64) (Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.objects[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	if i == 0 || vs[i-1].Deleted {
		return Version{}, false
	}
	return vs[i-1], true
}

// HashAtExcluding returns the value fingerprint of the object at ts
// (MissingHash if absent), ignoring the version written by reqID itself.
// The repair engine evaluates a request's read dependencies with its own
// writes masked out: a read performed before the request's own write
// observed the previous version, and comparing against the post-write state
// would make every read-modify-write request look permanently affected.
func (s *Store) HashAtExcluding(k Key, ts int64, reqID string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.objects[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	// A request's writes coalesce into a single version, so stepping back
	// one version past our own write suffices.
	if i > 0 && vs[i-1].ReqID == reqID && !vs[i-1].Immutable {
		i--
	}
	if i == 0 || vs[i-1].Deleted {
		return MissingHash
	}
	return vs[i-1].Hash()
}

// hashAtExcludingLocked is HashAtExcluding without locking. Caller holds mu.
func (s *Store) hashAtExcludingLocked(k Key, ts int64, reqID string) uint64 {
	vs := s.objects[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	if i > 0 && vs[i-1].ReqID == reqID && !vs[i-1].Immutable {
		i--
	}
	if i == 0 || vs[i-1].Deleted {
		return MissingHash
	}
	return vs[i-1].Hash()
}

// ScanHashAtExcluding fingerprints the set of live (id, value-hash) pairs
// of a model at ts. Scan dependencies recorded by list queries compare this
// fingerprint during repair: a scan is affected only if membership or any
// member's value changed. reqID's own versions are masked out, for the same
// reason as HashAtExcluding: a scan dependency must fingerprint the state
// the request observed from *others*, which replay regenerates
// deterministically.
//
// The whole fingerprint is computed over the model's member index under one
// read lock: it is a consistent snapshot (concurrent writers cannot
// interleave mid-fingerprint) and costs O(members of model), not a walk and
// sort of the entire object map plus one lock acquisition per member.
func (s *Store) ScanHashAtExcluding(model string, ts int64, reqID string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var fp uint64
	idx := s.models[model]
	if idx == nil {
		return 0
	}
	for _, b := range idx.ids.blocks {
		for _, id := range b {
			vh := s.hashAtExcludingLocked(Key{Model: model, ID: id}, ts, reqID)
			if vh == MissingHash {
				continue
			}
			fp += scanContrib(id, vh)
		}
	}
	return fp
}

// Member is one object a ListAt walk found live: its ID and the version
// visible at the walk's timestamp (the store's own, as ViewAt returns it).
type Member struct {
	ID      string
	Version Version
}

// ListAt is List's store half: one walk of the model's members, in ID
// order, under one read lock. It returns the members live at ts, and the
// scan fingerprint ScanHashAtExcluding(model, ts, reqID) would return,
// computed in the same walk, so the listing and its fingerprint are one
// consistent snapshot.
func (s *Store) ListAt(model string, ts int64, reqID string) ([]Member, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx := s.models[model]
	if idx == nil {
		return nil, 0
	}
	out := make([]Member, 0, idx.ids.len())
	var fp uint64
	for _, b := range idx.ids.blocks {
		for _, id := range b {
			vs := s.objects[Key{Model: model, ID: id}]
			i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
			if i > 0 && !vs[i-1].Deleted {
				out = append(out, Member{ID: id, Version: vs[i-1]})
			}
			// The fingerprint masks reqID's own (coalesced, so single)
			// version, as hashAtExcludingLocked does.
			if i > 0 && vs[i-1].ReqID == reqID && !vs[i-1].Immutable {
				i--
			}
			if i > 0 && !vs[i-1].Deleted {
				fp += scanContrib(id, vs[i-1].Hash())
			}
		}
	}
	return out, fp
}

// HasVersion reports whether the object still has the exact version written
// at ts by reqID. The repair engine uses this to detect writes that were
// rolled back and must be re-executed ("queries that might have modified the
// rows that have been rolled back", §2.1).
func (s *Store) HasVersion(k Key, ts int64, reqID string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, v := range s.objects[k] {
		if v.TS == ts && v.ReqID == reqID {
			return true
		}
		if v.TS > ts {
			break
		}
	}
	return false
}

// Rollback removes all mutable versions of the object with TS > ts and
// returns how many were removed. Immutable versions survive.
func (s *Store) Rollback(k Key, ts int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := s.rollbackLocked(k, ts)
	if removed > 0 {
		s.emitLocked(Change{Kind: "rollback", Key: k, TS: ts})
	}
	return removed
}

func (s *Store) rollbackLocked(k Key, ts int64) int {
	vs := s.objects[k]
	if len(vs) == 0 {
		return 0
	}
	if vs[len(vs)-1].Immutable {
		return 0
	}
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	removed := len(vs) - i
	if removed > 0 {
		s.objects[k] = vs[:i]
		if i == 0 {
			delete(s.objects, k)
			s.indexRemoveLocked(k)
		}
	}
	return removed
}

// IDs returns the sorted IDs of all live objects of the model at present.
// The model's member index is already sorted, so this walks only the
// model's members and performs no sort.
func (s *Store) IDs(model string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx := s.models[model]
	if idx == nil {
		return nil
	}
	var ids []string
	for _, b := range idx.ids.blocks {
		for _, id := range b {
			vs := s.objects[Key{Model: model, ID: id}]
			if len(vs) == 0 || vs[len(vs)-1].Deleted {
				continue
			}
			ids = append(ids, id)
		}
	}
	return ids
}

// IDsAt returns the sorted IDs of all objects of the model live at ts.
func (s *Store) IDsAt(model string, ts int64) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx := s.models[model]
	if idx == nil {
		return nil
	}
	var ids []string
	for _, b := range idx.ids.blocks {
		for _, id := range b {
			vs := s.objects[Key{Model: model, ID: id}]
			i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
			if i == 0 || vs[i-1].Deleted {
				continue
			}
			ids = append(ids, id)
		}
	}
	return ids
}

// Versions returns a copy of all versions of the object (oldest first).
func (s *Store) Versions(k Key) []Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.objects[k]
	out := make([]Version, len(vs))
	for i, v := range vs {
		out[i] = v.clone()
	}
	return out
}

func (v Version) clone() Version {
	c := v
	c.Fields = copyFields(v.Fields)
	return c
}

// MarkConfidential flags an object for leak reporting (§9): after repair,
// Aire reports requests that read the object during original execution but
// not during replay.
func (s *Store) MarkConfidential(k Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.confidential[k] = true
}

// IsConfidential reports whether the object was marked confidential.
func (s *Store) IsConfidential(k Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.confidential[k]
}

// VersionBytes returns the cumulative encoded size of all versions ever
// written, the equivalent of the paper's per-request database checkpoint
// storage cost (Table 4).
func (s *Store) VersionBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.versionBytes
}

// IndexBytes estimates the memory footprint of the store's secondary
// index layer: the per-model sorted member sets. Table 4's "DB" accounting (VersionBytes)
// deliberately mirrors the paper and ignores this overhead; IndexBytes
// makes it visible so storage-cost claims can include it (ROADMAP: "index
// memory is unaccounted"). The estimate mirrors approxSize's spirit —
// string bytes plus fixed per-slot overheads — not Go allocator truth.
func (s *Store) IndexBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for name, idx := range s.models {
		// map slot + model name + modelIndex (its idSet).
		n += int64(len(name)) + 16 + 32
		for _, b := range idx.ids.blocks {
			n += 24 // the block's slice header
			for _, id := range b {
				n += int64(len(id)) + 16 // member slot: string header + bytes
			}
		}
	}
	return n
}

// GC discards versions older than beforeTS (§9): for every object, versions
// with TS < beforeTS are squashed into the single newest such version, which
// becomes the object's base state. After GC the store cannot answer GetAt
// queries before beforeTS; GCBefore exposes the horizon so the repair
// controller can refuse repairs of garbage-collected requests.
func (s *Store) GC(beforeTS int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked(beforeTS)
	s.emitLocked(Change{Kind: "gc", TS: beforeTS})
}

func (s *Store) gcLocked(beforeTS int64) {
	if beforeTS > s.gcBefore {
		s.gcBefore = beforeTS
	}
	for k, vs := range s.objects {
		i := sort.Search(len(vs), func(i int) bool { return vs[i].TS >= beforeTS })
		if i <= 1 {
			continue
		}
		// Keep vs[i-1] as the base, drop everything before it.
		kept := append([]Version(nil), vs[i-1:]...)
		s.objects[k] = kept
	}
}

// GCBefore returns the garbage-collection horizon (0 if GC never ran).
func (s *Store) GCBefore() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gcBefore
}

// ObjectDump is the serializable state of one object.
type ObjectDump struct {
	Key      Key       `json:"key"`
	Versions []Version `json:"versions"`
}

// Dump exports every object's version history in deterministic (key) order,
// for persistence.
func (s *Store) Dump() []ObjectDump {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ObjectDump, 0, len(s.objects))
	for k, vs := range s.objects {
		cp := make([]Version, len(vs))
		for i, v := range vs {
			cp[i] = v.clone()
		}
		out = append(out, ObjectDump{Key: k, Versions: cp})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Model != out[j].Key.Model {
			return out[i].Key.Model < out[j].Key.Model
		}
		return out[i].Key.ID < out[j].Key.ID
	})
	return out
}
