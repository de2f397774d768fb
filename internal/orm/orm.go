// Package orm provides the model layer applications use to store state,
// playing the role Django's ORM plays in the paper's prototype (§6).
//
// Every read and write goes through a Tx bound to the currently executing
// request. The Tx transparently versions writes in the underlying vdb store
// and records read, scan, and write dependencies into the request's repair
// log record — the two interposition points Aire needs ("we modified the
// Django ORM to intercept the application's reads and writes to model
// objects").
//
// Models registered as versioned correspond to the paper's
// AppVersionedModel: their objects are immutable, are not rolled back during
// repair, and carry no dependency tracking (§6, "Repair for a versioned
// API").
package orm

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"aire/internal/repairlog"
	"aire/internal/vdb"
)

// Schema records the models an application declared.
type Schema struct {
	mu        sync.RWMutex
	models    map[string]bool
	versioned map[string]bool
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{models: make(map[string]bool), versioned: make(map[string]bool)}
}

// Register declares a regular (rollback-able, dependency-tracked) model.
func (s *Schema) Register(model string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models[model] = true
}

// RegisterVersioned declares an AppVersionedModel: immutable objects exempt
// from rollback and dependency tracking.
func (s *Schema) RegisterVersioned(model string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models[model] = true
	s.versioned[model] = true
}

// IsVersioned reports whether the model was registered as versioned.
func (s *Schema) IsVersioned(model string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.versioned[model]
}

// Models returns the sorted names of all registered models.
func (s *Schema) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.models))
	for m := range s.models {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Obj is one model object: an ID plus string-valued fields. The field map
// is the store's own (vdb.Store.ViewAt), shared by every reader of that
// version, so it is unexported: applications read it through Get, Int and
// Bool, and change it only through Put or Update.
type Obj struct {
	ID string
	f  map[string]string
}

// Get returns the named field ("" if absent).
func (o Obj) Get(field string) string { return o.f[field] }

// Int returns the named field parsed as an integer (0 if absent/invalid).
func (o Obj) Int(field string) int {
	n, _ := strconv.Atoi(o.f[field])
	return n
}

// Bool returns whether the named field equals "true".
func (o Obj) Bool(field string) bool { return o.f[field] == "true" }

// Fields builds a field map from key/value pairs.
func Fields(kv ...string) map[string]string {
	if len(kv)%2 != 0 {
		panic("orm: Fields requires key/value pairs")
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// Deps is the sink a Tx records dependencies into. The executing request
// copies or moves its slices into the request's log record when the
// handler returns.
//
// Each dependency is recorded once per request, at its first occurrence:
// Reads holds one entry per key, Scans one per model and Writes one per
// key. A repeat carries nothing repair needs. The Tx reads at one snapshot
// time (At) while its service runs nothing else, so a key read again
// observes the version the first read did, unless the request wrote the
// key in between. A read of its own put or delete records nothing: repair
// checks reads with the request's own writes masked, so a miss recorded
// after its own delete would be compared with the version before the
// delete and always found changed. A repeated scan (its fingerprint masks
// the request's own writes too) or write is identical to its first.
type Deps struct {
	Reads  []repairlog.ReadDep
	Scans  []repairlog.ScanDep
	Writes []repairlog.WriteDep
	// readKeys is the set of keys Reads names. Get makes it on the first
	// recorded read; Reset empties it.
	readKeys map[vdb.Key]struct{}
}

// Reset empties d for another request, keeping what Reads and its key set
// have grown to. Scans and Writes are dropped, not reused: the record of
// the request that collected them may hold them. The set is emptied key
// by key, at the cost of what the request recorded: clear costs a map's
// capacity, which one request reading thousands of keys would leave large
// for every later request.
func (d *Deps) Reset() {
	for _, r := range d.Reads {
		delete(d.readKeys, r.Key)
	}
	// Drop the keys' strings while the slice waits for its next request.
	clear(d.Reads)
	d.Reads = d.Reads[:0]
	d.Scans, d.Writes = nil, nil
}

// scanned reports whether Scans already holds the model.
func (d *Deps) scanned(model string) bool {
	for _, s := range d.Scans {
		if s.Model == model {
			return true
		}
	}
	return false
}

// write records a write dependency on k at ts unless Writes holds k.
func (d *Deps) write(k vdb.Key, ts int64) {
	for _, w := range d.Writes {
		if w.Key == k {
			return
		}
	}
	d.Writes = append(d.Writes, repairlog.WriteDep{Key: k, TS: ts})
}

// Tx is a request-scoped handle on the versioned store.
//
// Reads observe the store as of At (the executing request's logical
// timestamp); writes create versions at At attributed to ReqID. During
// replay, a write whose key has newer versions first rolls those versions
// back — the writers that produced them are re-executed later by the repair
// engine (rollback-redo, §2.1).
type Tx struct {
	Store    *vdb.Store
	Schema   *Schema
	At       int64
	ReqID    string
	ReadOnly bool
	// Deps, when non-nil, accumulates dependency records.
	Deps *Deps
}

// Snapshot returns a read-only Tx at timestamp at, used by repair access
// control to inspect state as of the original request (§4).
func Snapshot(store *vdb.Store, schema *Schema, at int64) *Tx {
	return &Tx{Store: store, Schema: schema, At: at, ReadOnly: true}
}

// Get fetches an object, recording a read dependency unless the request
// already recorded one on the key.
func (tx *Tx) Get(model, id string) (Obj, bool) {
	k := vdb.Key{Model: model, ID: id}
	v, ok := tx.Store.ViewAt(k, tx.At)
	if d := tx.Deps; d != nil {
		// Reads of the request's own earlier writes, deletes included,
		// carry no external dependency: deterministic replay regenerates
		// them identically.
		if _, seen := d.readKeys[k]; !seen && !tx.Schema.IsVersioned(model) && !tx.readsOwnWrite(k, v, ok) {
			dep := repairlog.ReadDep{Key: k}
			if ok {
				dep.TS = v.TS
				dep.Hash = v.Hash()
			}
			if d.readKeys == nil {
				d.readKeys = make(map[vdb.Key]struct{})
			}
			d.readKeys[k] = struct{}{}
			d.Reads = append(d.Reads, dep)
		}
	}
	if !ok {
		return Obj{}, false
	}
	return Obj{ID: id, f: v.Fields}, true
}

// readsOwnWrite reports whether a Get of k that found v (ok) observed the
// request's own put or delete.
func (tx *Tx) readsOwnWrite(k vdb.Key, v vdb.Version, ok bool) bool {
	if ok {
		return v.ReqID == tx.ReqID
	}
	return tx.Store.HasVersion(k, tx.At, tx.ReqID)
}

// Put writes an object, recording a write dependency. For versioned models
// the object becomes immutable.
func (tx *Tx) Put(model, id string, fields map[string]string) error {
	if tx.ReadOnly {
		return fmt.Errorf("orm: write to %s/%s in read-only transaction", model, id)
	}
	k := vdb.Key{Model: model, ID: id}
	if tx.Schema.IsVersioned(model) {
		return tx.Store.PutImmutable(k, fields, tx.At, tx.ReqID)
	}
	// Rollback-redo: writing "at" tx.At removes any newer versions; their
	// writers fail their write-dependency check and re-execute (§2.1).
	tx.Store.Rollback(k, tx.At)
	if err := tx.Store.Put(k, fields, tx.At, tx.ReqID); err != nil {
		return err
	}
	if tx.Deps != nil {
		tx.Deps.write(k, tx.At)
	}
	return nil
}

// Delete removes an object (tombstone), recording a write dependency.
func (tx *Tx) Delete(model, id string) error {
	if tx.ReadOnly {
		return fmt.Errorf("orm: delete of %s/%s in read-only transaction", model, id)
	}
	if tx.Schema.IsVersioned(model) {
		return fmt.Errorf("orm: cannot delete immutable versioned object %s/%s", model, id)
	}
	k := vdb.Key{Model: model, ID: id}
	tx.Store.Rollback(k, tx.At)
	if err := tx.Store.Delete(k, tx.At, tx.ReqID); err != nil {
		return err
	}
	if tx.Deps != nil {
		tx.Deps.write(k, tx.At)
	}
	return nil
}

// Update mutates an existing object via fn, which receives a private copy
// of its fields; it is a Get followed by a Put and records both
// dependencies. It reports whether the object existed.
func (tx *Tx) Update(model, id string, fn func(map[string]string)) (bool, error) {
	o, ok := tx.Get(model, id)
	if !ok {
		return false, nil
	}
	fields := make(map[string]string, len(o.f))
	for k, v := range o.f {
		fields[k] = v
	}
	fn(fields)
	return true, tx.Put(model, id, fields)
}

// List returns all live objects of the model at tx.At, sorted by ID,
// recording a scan dependency over the model unless the request already
// recorded one. The objects and the scan fingerprint come from one walk of
// the model's members (vdb.Store.ListAt).
func (tx *Tx) List(model string) []Obj {
	members, fp := tx.Store.ListAt(model, tx.At, tx.ReqID)
	out := make([]Obj, len(members))
	for i, m := range members {
		out[i] = Obj{ID: m.ID, f: m.Version.Fields}
	}
	if tx.Deps != nil && !tx.Deps.scanned(model) && !tx.Schema.IsVersioned(model) {
		tx.Deps.Scans = append(tx.Deps.Scans, repairlog.ScanDep{Model: model, Hash: fp})
	}
	return out
}

// Select returns the objects of the model matching pred, recording a scan
// dependency (membership of the result can change whenever the model
// changes).
func (tx *Tx) Select(model string, pred func(Obj) bool) []Obj {
	all := tx.List(model)
	out := all[:0:0]
	for _, o := range all {
		if pred(o) {
			out = append(out, o)
		}
	}
	return out
}

// First returns the first object matching pred in ID order.
func (tx *Tx) First(model string, pred func(Obj) bool) (Obj, bool) {
	for _, o := range tx.Select(model, pred) {
		return o, true
	}
	return Obj{}, false
}
