package orm

import (
	"fmt"
	"sync"
	"testing"

	"aire/internal/vdb"
)

func newTx(store *vdb.Store, schema *Schema, at int64, reqID string) *Tx {
	return &Tx{Store: store, Schema: schema, At: at, ReqID: reqID, Deps: &Deps{}}
}

func setup() (*vdb.Store, *Schema) {
	s := vdb.NewStore()
	sc := NewSchema()
	sc.Register("kv")
	sc.RegisterVersioned("ver")
	return s, sc
}

func TestPutGetRecordsDeps(t *testing.T) {
	store, schema := setup()
	tx := newTx(store, schema, 10, "r1")
	if err := tx.Put("kv", "a", Fields("v", "1")); err != nil {
		t.Fatal(err)
	}
	tx2 := newTx(store, schema, 20, "r2")
	o, ok := tx2.Get("kv", "a")
	if !ok || o.Get("v") != "1" {
		t.Fatalf("Get = %+v %v", o, ok)
	}
	if len(tx.Deps.Writes) != 1 || tx.Deps.Writes[0].Key.ID != "a" {
		t.Fatalf("write deps = %+v", tx.Deps.Writes)
	}
	if len(tx2.Deps.Reads) != 1 || tx2.Deps.Reads[0].TS != 10 {
		t.Fatalf("read deps = %+v", tx2.Deps.Reads)
	}
}

func TestReadMissRecordsDep(t *testing.T) {
	store, schema := setup()
	tx := newTx(store, schema, 10, "r1")
	if _, ok := tx.Get("kv", "nope"); ok {
		t.Fatal("miss reported as hit")
	}
	if len(tx.Deps.Reads) != 1 || tx.Deps.Reads[0].Hash != vdb.MissingHash || tx.Deps.Reads[0].TS != 0 {
		t.Fatalf("miss dep = %+v", tx.Deps.Reads)
	}
}

func TestReadOwnWriteSkipsDep(t *testing.T) {
	store, schema := setup()
	tx := newTx(store, schema, 10, "r1")
	tx.Put("kv", "a", Fields("v", "1"))
	if o, ok := tx.Get("kv", "a"); !ok || o.Get("v") != "1" {
		t.Fatal("read-own-write must return the written value")
	}
	if len(tx.Deps.Reads) != 0 {
		t.Fatalf("read of own write must record no dep: %+v", tx.Deps.Reads)
	}
}

// TestDepsOncePerKey: repeated reads, scans and writes of one key or model
// record one dependency each, the first; a read of the request's own
// write records none, one after the request's own delete is a repeat of
// the first read, and a first read after its own delete records none.
func TestDepsOncePerKey(t *testing.T) {
	store, schema := setup()
	newTx(store, schema, 10, "r1").Put("kv", "a", Fields("v", "1"))
	newTx(store, schema, 10, "r1").Put("kv", "c", Fields("v", "1"))
	tx := newTx(store, schema, 20, "r2")
	tx.Get("kv", "a")
	tx.List("kv")
	tx.Get("kv", "nope")
	tx.Put("kv", "b", Fields("v", "2"))
	tx.Get("kv", "b")
	tx.List("kv")
	tx.Put("kv", "b", Fields("v", "3"))
	tx.Delete("kv", "a")
	tx.Get("kv", "a")
	tx.Get("kv", "nope")
	tx.Delete("kv", "c")
	tx.Get("kv", "c")
	d := tx.Deps
	if len(d.Reads) != 2 || d.Reads[0].Key.ID != "a" || d.Reads[0].TS != 10 || d.Reads[1].Key.ID != "nope" {
		t.Fatalf("reads = %+v, want a as first read, then nope", d.Reads)
	}
	if len(d.Scans) != 1 || len(d.Writes) != 3 || d.Writes[0].Key.ID != "b" || d.Writes[1].Key.ID != "a" || d.Writes[2].Key.ID != "c" {
		t.Fatalf("scans = %+v, writes = %+v, want one scan and writes of b, a, c", d.Scans, d.Writes)
	}
}

func TestUpdateRecordsReadAndWrite(t *testing.T) {
	store, schema := setup()
	newTx(store, schema, 10, "r1").Put("kv", "a", Fields("n", "1"))
	tx := newTx(store, schema, 20, "r2")
	found, err := tx.Update("kv", "a", func(f map[string]string) { f["n"] = "2" })
	if err != nil || !found {
		t.Fatalf("update: %v %v", found, err)
	}
	if len(tx.Deps.Reads) != 1 || len(tx.Deps.Writes) != 1 {
		t.Fatalf("deps = %+v", tx.Deps)
	}
	o, _ := newTx(store, schema, 30, "r3").Get("kv", "a")
	if o.Get("n") != "2" {
		t.Fatalf("update not applied: %+v", o)
	}
	// Missing object: no write.
	found, err = tx.Update("kv", "nope", func(map[string]string) {})
	if err != nil || found {
		t.Fatal("update of missing object should report not-found")
	}
}

// Reads share the store's field maps (vdb.Store.ViewAt), so the read-only
// contract is what keeps history intact: an Update whose fn rewrites its
// map changes neither the version stored at the older timestamp nor an Obj
// handed out by an earlier Get or List, including when the update coalesces
// into the reading request's own version.
func TestUpdateMutationLeavesReadsAndHistoryIntact(t *testing.T) {
	store, schema := setup()
	newTx(store, schema, 10, "r1").Put("kv", "a", Fields("v", "1", "w", "x"))
	same := func(o Obj) bool { return o.Get("v") == "1" && o.Get("w") == "x" && o.Get("z") == "" }
	rewrite := func(f map[string]string) {
		f["v"] = "2"
		delete(f, "w")
		f["z"] = "new"
	}

	tx := newTx(store, schema, 20, "r2")
	got, _ := tx.Get("kv", "a")
	listed := tx.List("kv")
	for _, fn := range []func(map[string]string){rewrite, rewrite} { // the second coalesces at ts 20
		if found, err := tx.Update("kv", "a", fn); err != nil || !found {
			t.Fatalf("update: %v %v", found, err)
		}
	}
	later := newTx(store, schema, 30, "r3")
	latest, _ := later.Get("kv", "a")
	if latest.Get("v") != "2" || latest.Get("w") != "" || latest.Get("z") != "new" {
		t.Fatalf("update not applied: %+v", latest)
	}
	if !same(got) || len(listed) != 1 || !same(listed[0]) {
		t.Fatalf("earlier reads changed under Update: %+v %+v", got, listed)
	}
	if v, _ := store.GetAt(vdb.Key{Model: "kv", ID: "a"}, 10); v.Fields["v"] != "1" || v.Fields["w"] != "x" || len(v.Fields) != 2 {
		t.Fatalf("version at ts 10 changed: %+v", v.Fields)
	}
	if o, _ := newTx(store, schema, 15, "r4").Get("kv", "a"); !same(o) {
		t.Fatalf("read at ts 15 sees %+v", o)
	}
}

// Concurrent ORM readers share field maps with a writer on the same keys;
// under -race this proves no write path touches a map a reader holds.
func TestConcurrentReadersShareMapsWithWriter(t *testing.T) {
	store, schema := setup()
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		newTx(store, schema, 1, "seed").Put("kv", k, Fields("n", "0", "k", k))
	}
	const writes = 300
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				at := int64(1 + (i*7+r)%(writes+2))
				tx := newTx(store, schema, at, fmt.Sprintf("reader-%d-%d", r, i))
				for _, o := range tx.List("kv") {
					if o.Get("k") != o.ID || o.Int("n") < 0 {
						t.Errorf("torn read of %s: n=%q k=%q", o.ID, o.Get("n"), o.Get("k"))
						return
					}
				}
				if o, ok := tx.Get("kv", keys[i%len(keys)]); ok && o.Get("k") != o.ID {
					t.Errorf("torn read of %s", o.ID)
					return
				}
			}
		}(r)
	}
	for i := 0; i < writes; i++ {
		tx := newTx(store, schema, int64(2+i), fmt.Sprintf("w%d", i))
		k := keys[i%len(keys)]
		if _, err := tx.Update("kv", k, func(f map[string]string) { f["n"] = fmt.Sprint(i + 1) }); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := tx.Put("kv", k, Fields("n", fmt.Sprint(i+1), "k", k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
}

func TestListRecordsScanDepAndTimeTravel(t *testing.T) {
	store, schema := setup()
	newTx(store, schema, 10, "r1").Put("kv", "a", Fields("v", "1"))
	newTx(store, schema, 20, "r2").Put("kv", "b", Fields("v", "2"))

	tx := newTx(store, schema, 15, "r3")
	got := tx.List("kv")
	if len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("List at ts=15 = %+v", got)
	}
	if len(tx.Deps.Scans) != 1 || tx.Deps.Scans[0].Model != "kv" {
		t.Fatalf("scan deps = %+v", tx.Deps.Scans)
	}
}

func TestSelectAndFirst(t *testing.T) {
	store, schema := setup()
	newTx(store, schema, 10, "r1").Put("kv", "a", Fields("kind", "x"))
	newTx(store, schema, 20, "r2").Put("kv", "b", Fields("kind", "y"))
	newTx(store, schema, 30, "r3").Put("kv", "c", Fields("kind", "x"))

	tx := newTx(store, schema, 99, "r4")
	xs := tx.Select("kv", func(o Obj) bool { return o.Get("kind") == "x" })
	if len(xs) != 2 {
		t.Fatalf("Select = %+v", xs)
	}
	first, ok := tx.First("kv", func(o Obj) bool { return o.Get("kind") == "y" })
	if !ok || first.ID != "b" {
		t.Fatalf("First = %+v %v", first, ok)
	}
	if _, ok := tx.First("kv", func(Obj) bool { return false }); ok {
		t.Fatal("First with no match must report false")
	}
}

func TestDelete(t *testing.T) {
	store, schema := setup()
	newTx(store, schema, 10, "r1").Put("kv", "a", Fields("v", "1"))
	tx := newTx(store, schema, 20, "r2")
	if err := tx.Delete("kv", "a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := newTx(store, schema, 30, "r3").Get("kv", "a"); ok {
		t.Fatal("deleted object visible")
	}
	// Still visible in the past.
	if _, ok := newTx(store, schema, 15, "r4").Get("kv", "a"); !ok {
		t.Fatal("time travel to before deletion failed")
	}
}

func TestReadOnlyGuards(t *testing.T) {
	store, schema := setup()
	tx := Snapshot(store, schema, 10)
	if err := tx.Put("kv", "a", Fields("v", "1")); err == nil {
		t.Fatal("Put on snapshot must fail")
	}
	if err := tx.Delete("kv", "a"); err == nil {
		t.Fatal("Delete on snapshot must fail")
	}
}

func TestVersionedModelSemantics(t *testing.T) {
	store, schema := setup()
	tx := newTx(store, schema, 10, "r1")
	if err := tx.Put("ver", "v1", Fields("v", "a")); err != nil {
		t.Fatal(err)
	}
	// No dependency tracking for versioned models.
	if len(tx.Deps.Writes) != 0 {
		t.Fatalf("versioned write recorded a dep: %+v", tx.Deps.Writes)
	}
	tx2 := newTx(store, schema, 20, "r2")
	if _, ok := tx2.Get("ver", "v1"); !ok {
		t.Fatal("versioned object missing")
	}
	if len(tx2.Deps.Reads) != 0 {
		t.Fatalf("versioned read recorded a dep: %+v", tx2.Deps.Reads)
	}
	// Immutable: delete forbidden, conflicting re-put forbidden.
	if err := tx2.Delete("ver", "v1"); err == nil {
		t.Fatal("delete of versioned object must fail")
	}
	if err := tx2.Put("ver", "v1", Fields("v", "CHANGED")); err == nil {
		t.Fatal("conflicting immutable put must fail")
	}
	// Idempotent identical re-put (replay) is fine.
	if err := tx2.Put("ver", "v1", Fields("v", "a")); err != nil {
		t.Fatal(err)
	}
	// Survives rollback.
	store.Rollback(vdb.Key{Model: "ver", ID: "v1"}, 0)
	if _, ok := newTx(store, schema, 30, "r3").Get("ver", "v1"); !ok {
		t.Fatal("versioned object rolled back")
	}
}

func TestRollbackRedoPutSemantics(t *testing.T) {
	// A replay write "into the past" removes newer versions (their writers
	// re-execute later).
	store, schema := setup()
	newTx(store, schema, 10, "r1").Put("kv", "a", Fields("v", "old"))
	newTx(store, schema, 30, "r3").Put("kv", "a", Fields("v", "newer"))
	// Replay r2 at ts=20 writing a.
	if err := newTx(store, schema, 20, "r2").Put("kv", "a", Fields("v", "replayed")); err != nil {
		t.Fatal(err)
	}
	o, _ := newTx(store, schema, 99, "r4").Get("kv", "a")
	if o.Get("v") != "replayed" {
		t.Fatalf("latest = %+v", o)
	}
	if store.HasVersion(vdb.Key{Model: "kv", ID: "a"}, 30, "r3") {
		t.Fatal("newer version should have been rolled back by the replay write")
	}
}

func TestObjHelpers(t *testing.T) {
	o := Obj{ID: "x", f: map[string]string{"n": "42", "b": "true", "bad": "x9"}}
	if o.Int("n") != 42 || o.Int("missing") != 0 || o.Int("bad") != 0 {
		t.Fatal("Int helper wrong")
	}
	if !o.Bool("b") || o.Bool("n") {
		t.Fatal("Bool helper wrong")
	}
	if o.Get("missing") != "" {
		t.Fatal("Get helper wrong")
	}
}

func TestSchemaRegistry(t *testing.T) {
	sc := NewSchema()
	sc.Register("b")
	sc.Register("a")
	sc.RegisterVersioned("c")
	if !sc.IsVersioned("c") || sc.IsVersioned("a") {
		t.Fatal("versioned flags wrong")
	}
	m := sc.Models()
	if len(m) != 3 || m[0] != "a" || m[2] != "c" {
		t.Fatalf("Models = %v", m)
	}
}

func TestFieldsPanicsOnOddArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fields with odd args must panic")
		}
	}()
	Fields("a")
}
