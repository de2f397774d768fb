package warp

import (
	"fmt"
	"runtime"
	"testing"

	"aire/internal/orm"
	"aire/internal/repairlog"
	"aire/internal/vdb"
	"aire/internal/wire"
)

// padLog appends n records unrelated to the kv model straight to the log
// and the store, each writing pad/i after reading pad/i-1, as a long-lived
// service's history would.
func padLog(t *testing.T, r *rig, n int) {
	t.Helper()
	svc := r.svc
	for i := 0; i < n; i++ {
		rec := &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next(), Req: put("pad", "x"), Resp: wire.NewResponse(200, "ok")}
		prev := vdb.Key{Model: "pad", ID: fmt.Sprint(svc.Log.Len() - 1)}
		if v, ok := svc.Store.ViewAt(prev, rec.TS); ok {
			rec.Reads = []repairlog.ReadDep{{Key: prev, TS: v.TS, Hash: v.Hash()}}
		}
		k := vdb.Key{Model: "pad", ID: fmt.Sprint(svc.Log.Len())}
		if err := svc.Store.Put(k, orm.Fields("v", rec.ID), rec.TS, rec.ID); err != nil {
			t.Fatal(err)
		}
		rec.Writes = []repairlog.WriteDep{{Key: k, TS: rec.TS}}
		if err := svc.Log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRepairWorkIndependentOfLogSize pins that repair does work in
// proportion to the affected requests, not to the log (§2.1): the same
// cancel, on logs padded with 10³ and with 10⁴ unrelated records (half
// before the attack, half after), examines and re-executes the same
// records, and Repair allocates at most 2× as much on the larger log. The
// attack's dependents are a read-modify-write, a read, a scan and a second
// read-modify-write behind the later padding. (A 10⁵-record log takes
// about 6 s to build under -race; 10⁴ shows the same independence.)
func TestRepairWorkIndependentOfLogSize(t *testing.T) {
	const (
		wantExamined = 5 // the attack and its four dependents
		wantRepaired = 5
	)
	repair := func(pad int) (res *Result, allocs uint64) {
		r := newRig(t, scanRoutes)
		padLog(t, r, pad/2)
		atk := r.handle(t, put("x", "evil"), false)
		r.handle(t, wire.NewRequest("POST", "/inc").WithForm("key", "x"), false)
		r.handle(t, wire.NewRequest("GET", "/get").WithForm("key", "x"), false)
		r.handle(t, wire.NewRequest("GET", "/sum"), false)
		padLog(t, r, pad/2)
		r.handle(t, wire.NewRequest("POST", "/inc").WithForm("key", "x"), false)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := r.engine.Repair([]Action{{Kind: CancelReq, ReqID: atk.ID}})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.Mallocs - before.Mallocs
	}
	small, smallAllocs := repair(1_000)
	large, largeAllocs := repair(10_000)
	t.Logf("10³: examined %d, repaired %d, %d allocs; 10⁴: examined %d, repaired %d, %d allocs",
		small.Examined, small.RepairedRequests, smallAllocs, large.Examined, large.RepairedRequests, largeAllocs)
	for _, res := range []*Result{small, large} {
		if res.Examined != wantExamined || res.RepairedRequests != wantRepaired {
			t.Errorf("log of %d: examined %d and repaired %d records, want %d and %d",
				res.TotalRequests, res.Examined, res.RepairedRequests, wantExamined, wantRepaired)
		}
	}
	if largeAllocs > 2*smallAllocs {
		t.Errorf("Repair allocated %d times on the 10⁴-record log, over 2× the %d on the 10³-record one", largeAllocs, smallAllocs)
	}
}
