package repairlog

import (
	"strings"
	"testing"

	"aire/internal/wire"
)

// callRec builds a record with one outgoing call carrying the given RespID.
func callRec(id string, ts int64, respID, remoteID string) *Record {
	return &Record{
		ID: id, TS: ts,
		Req:  wire.NewRequest("GET", "/x"),
		Resp: wire.NewResponse(200, "ok"),
		Calls: []Call{{
			Seq: 0, Target: "peer", RespID: respID, RemoteReqID: remoteID,
			Req: wire.NewRequest("GET", "/y"), Resp: wire.NewResponse(200, "ok"),
		}},
	}
}

// Two services reusing an Aire-Response-Id must not silently corrupt the
// O(1) respIdx lookup: the colliding append fails loudly and the original
// mapping survives untouched.
func TestRespIDCollisionFailsLoudly(t *testing.T) {
	l := New(false)
	if err := l.Append(callRec("svcA-r1", 10, "resp-1", "rem-1")); err != nil {
		t.Fatal(err)
	}
	err := l.Append(callRec("svcB-r1", 20, "resp-1", "rem-2"))
	if err == nil {
		t.Fatal("appending a second record reusing resp-1 must fail")
	}
	if !strings.Contains(err.Error(), "resp-1") || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("collision error should name the ID: %v", err)
	}
	// The original owner keeps the mapping.
	r, idx, ok := l.FindByCallRespID("resp-1")
	if !ok || r.ID != "svcA-r1" || idx != 0 {
		t.Fatalf("FindByCallRespID(resp-1) = %v, %d, %v; want svcA-r1 call 0", r, idx, ok)
	}
	// The refused record left no trace: not in the log, not in any index.
	if _, ok := l.Get("svcB-r1"); ok {
		t.Fatal("refused record must not be retained")
	}
	if l.Len() != 1 {
		t.Fatalf("Len() = %d after refused append, want 1", l.Len())
	}
	// The timeline index for the peer target was rolled back too: only the
	// surviving record's call remains.
	before, after := l.NeighborCalls("peer", 15)
	if before != "rem-1" || after != "" {
		t.Fatalf("NeighborCalls = %q, %q; refused record's call leaked into the timeline", before, after)
	}
}

// A collision introduced through Update is reported, and the pre-existing
// mapping still resolves to its original owner.
func TestRespIDCollisionViaUpdate(t *testing.T) {
	l := New(false)
	if err := l.Append(callRec("r1", 10, "resp-1", "rem-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(callRec("r2", 20, "resp-2", "rem-2")); err != nil {
		t.Fatal(err)
	}
	err := l.Update("r2", func(r *Record) { r.Calls[0].RespID = "resp-1" })
	if err == nil {
		t.Fatal("update that reuses resp-1 must fail")
	}
	r, _, ok := l.FindByCallRespID("resp-1")
	if !ok || r.ID != "r1" {
		t.Fatalf("resp-1 must still resolve to r1, got %v ok=%v", r, ok)
	}
}

// A record's own re-index after Update (same RespID, same call) is not a
// collision — the rewrite path must stay error-free.
func TestRespIDReindexSameRecordOK(t *testing.T) {
	l := New(false)
	if err := l.Append(callRec("r1", 10, "resp-1", "rem-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Resync("r1"); err != nil {
		t.Fatalf("Resync of unchanged record: %v", err)
	}
	if err := l.Update("r1", func(r *Record) { r.Skipped = true }); err != nil {
		t.Fatalf("Update keeping the same RespID: %v", err)
	}
	if r, _, ok := l.FindByCallRespID("resp-1"); !ok || r.ID != "r1" {
		t.Fatal("resp-1 lost after benign update")
	}
}

// A replayed append whose call reuses a claimed Aire-Response-Id is refused
// as Append refuses it: ApplyWAL reports the collision and the log's
// indexes stay coherent, with the original owner keeping the mapping.
func TestRespIDCollisionOnReplayedAppend(t *testing.T) {
	l := New(false)
	if err := l.ApplyWAL(callRec("r1", 10, "resp-1", "rem-1")); err != nil {
		t.Fatal(err)
	}
	err := l.ApplyWAL(callRec("r2", 20, "resp-1", "rem-2"))
	if err == nil || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("replayed append reusing resp-1: err = %v, want a collision", err)
	}
	if err := l.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Get("r2"); ok || l.Len() != 1 {
		t.Fatalf("refused record retained: Len() = %d", l.Len())
	}
	if r, _, ok := l.FindByCallRespID("resp-1"); !ok || r.ID != "r1" {
		t.Fatalf("resp-1 must still resolve to r1, got %v ok=%v", r, ok)
	}
}
