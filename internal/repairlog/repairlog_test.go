package repairlog

import (
	"fmt"
	"testing"

	"aire/internal/vdb"
	"aire/internal/wire"
)

func rec(id string, ts int64) *Record {
	return &Record{ID: id, TS: ts, Req: wire.NewRequest("GET", "/x"), Resp: wire.NewResponse(200, "ok")}
}

func TestAppendOrderingAndLookup(t *testing.T) {
	l := New(false)
	for _, r := range []*Record{rec("b", 20), rec("a", 10), rec("c", 30)} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	all := l.All()
	if len(all) != 3 || all[0].ID != "a" || all[1].ID != "b" || all[2].ID != "c" {
		t.Fatalf("order wrong: %v", []string{all[0].ID, all[1].ID, all[2].ID})
	}
	if _, ok := l.Get("b"); !ok {
		t.Fatal("Get(b) failed")
	}
	if err := l.Append(rec("a", 99)); err == nil {
		t.Fatal("duplicate ID must be rejected")
	}
	if ts, ok := l.TSOf("c"); !ok || ts != 30 {
		t.Fatalf("TSOf(c) = %d, %v", ts, ok)
	}
}

func TestFrom(t *testing.T) {
	l := New(false)
	for i := 1; i <= 5; i++ {
		l.Append(rec(fmt.Sprintf("r%d", i), int64(i*10)))
	}
	got := l.From(30)
	if len(got) != 3 || got[0].ID != "r3" {
		t.Fatalf("From(30) = %d records starting %s", len(got), got[0].ID)
	}
}

func TestInsertionInThePast(t *testing.T) {
	l := New(false)
	l.Append(rec("r1", 10))
	l.Append(rec("r3", 30))
	l.Append(rec("r2", 20)) // repair-created request lands between
	all := l.All()
	if all[1].ID != "r2" {
		t.Fatalf("created record not ordered by TS: %s", all[1].ID)
	}
}

func TestUpdate(t *testing.T) {
	l := New(false)
	l.Append(rec("r1", 10))
	if err := l.Update("r1", func(r *Record) { r.Skipped = true }); err != nil {
		t.Fatal(err)
	}
	r, _ := l.Get("r1")
	if !r.Skipped {
		t.Fatal("update not applied")
	}
	if err := l.Update("nope", func(*Record) {}); err == nil {
		t.Fatal("update of missing record must fail")
	}
}

func TestFindByCallRespID(t *testing.T) {
	l := New(false)
	r := rec("r1", 10)
	r.Calls = []Call{
		{Seq: 0, Target: "b", RespID: "a-resp-1"},
		{Seq: 1, Target: "c", RespID: "a-resp-2"},
	}
	l.Append(r)
	got, i, ok := l.FindByCallRespID("a-resp-2")
	if !ok || got.ID != "r1" || i != 1 {
		t.Fatalf("FindByCallRespID = %v %d %v", got, i, ok)
	}
	if _, _, ok := l.FindByCallRespID("missing"); ok {
		t.Fatal("found nonexistent response id")
	}
}

func TestNeighborCalls(t *testing.T) {
	l := New(false)
	r1 := rec("r1", 10)
	r1.Calls = []Call{{Target: "b", RemoteReqID: "b-req-1"}}
	r2 := rec("r2", 30)
	r2.Calls = []Call{{Target: "b", RemoteReqID: "b-req-2"}, {Target: "c", RemoteReqID: "c-req-9"}}
	l.Append(r1)
	l.Append(r2)

	before, after := l.NeighborCalls("b", 20)
	if before != "b-req-1" || after != "b-req-2" {
		t.Fatalf("NeighborCalls(b,20) = %q,%q", before, after)
	}
	before, after = l.NeighborCalls("b", 5)
	if before != "" || after != "b-req-1" {
		t.Fatalf("NeighborCalls(b,5) = %q,%q", before, after)
	}
	before, after = l.NeighborCalls("b", 99)
	if before != "b-req-2" || after != "" {
		t.Fatalf("NeighborCalls(b,99) = %q,%q", before, after)
	}
	before, after = l.NeighborCalls("c", 10)
	if before != "" || after != "c-req-9" {
		t.Fatalf("NeighborCalls(c,10) = %q,%q", before, after)
	}
}

func TestGC(t *testing.T) {
	l := New(false)
	for i := 1; i <= 5; i++ {
		l.Append(rec(fmt.Sprintf("r%d", i), int64(i*10)))
	}
	if n := l.GC(30); n != 2 {
		t.Fatalf("GC removed %d, want 2", n)
	}
	if _, ok := l.Get("r1"); ok {
		t.Fatal("GC'd record still present")
	}
	if l.Len() != 3 || l.GCBefore() != 30 {
		t.Fatalf("Len=%d GCBefore=%d", l.Len(), l.GCBefore())
	}
}

func TestSizeAccounting(t *testing.T) {
	plain, gz := New(false), New(true)
	big := rec("r1", 10)
	big.Resp = wire.NewResponse(200, string(make([]byte, 4096))) // zeros compress well
	plain.Append(big)
	gz.Append(big.Clone())
	if plain.AppBytes() <= 0 || gz.AppBytes() <= 0 {
		t.Fatal("size accounting missing")
	}
	if gz.AppBytes() >= plain.AppBytes() {
		t.Fatalf("compressed size %d should beat raw %d on compressible data", gz.AppBytes(), plain.AppBytes())
	}
	if plain.samples != 1 {
		t.Fatalf("samples = %d", plain.samples)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := rec("r1", 10)
	r.Reads = []ReadDep{{Key: vdb.Key{Model: "kv", ID: "x"}, TS: 5, Hash: 7}}
	r.Calls = []Call{{Target: "b", Req: wire.NewRequest("POST", "/p")}}
	c := r.Clone()
	c.Reads[0].Hash = 99
	c.Calls[0].Req.Form["k"] = "v"
	c.Resp.Body = []byte("changed")
	if r.Reads[0].Hash != 7 || len(r.Calls[0].Req.Form) != 0 || string(r.Resp.Body) == "changed" {
		t.Fatal("Clone shares state with original")
	}
}
