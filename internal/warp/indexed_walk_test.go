package warp

import (
	"fmt"
	"testing"

	"aire/internal/orm"
	"aire/internal/vdb"
	"aire/internal/web"
	"aire/internal/wire"
)

// scanRoutes is kvRoutes plus /sum (a scan reader) and /inc (a
// read-modify-write that chains write dependencies across requests).
func scanRoutes(svc *web.Service) {
	kvRoutes(svc)
	svc.Router.Handle("GET", "/sum", func(c *web.Ctx) wire.Response {
		out := ""
		for _, o := range c.DB.List("kv") {
			out += o.ID + "=" + o.Get("v") + ";"
		}
		return c.OK(out)
	})
	svc.Router.Handle("POST", "/inc", func(c *web.Ctx) wire.Response {
		v := "1"
		if o, ok := c.DB.Get("kv", c.Form("key")); ok {
			v = o.Get("v") + "+"
		}
		if err := c.DB.Put("kv", c.Form("key"), orm.Fields("v", v)); err != nil {
			return c.Error(500, err.Error())
		}
		return c.OK(v)
	})
}

// buildEquivalenceWorkload drives one rig through a workload mixing writes,
// point reads, scans, read-modify-write chains, and plenty of unrelated
// traffic; it returns the request IDs of the two attack writes.
func buildEquivalenceWorkload(t *testing.T, r *rig) (atk1, atk2 string) {
	t.Helper()
	a1 := r.handle(t, put("x", "evil"), false)
	a2 := r.handle(t, put("y", "worse"), false)
	r.handle(t, wire.NewRequest("GET", "/get").WithForm("key", "x"), false)
	r.handle(t, wire.NewRequest("POST", "/inc").WithForm("key", "x"), false)
	r.handle(t, wire.NewRequest("GET", "/sum"), false)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("u%d", i)
		r.handle(t, put(key, "clean"), false)
		r.handle(t, wire.NewRequest("GET", "/get").WithForm("key", key), false)
	}
	r.handle(t, wire.NewRequest("POST", "/inc").WithForm("key", "x"), false)
	r.handle(t, wire.NewRequest("GET", "/sum"), false)
	return a1.ID, a2.ID
}

func snapshotRecords(t *testing.T, r *rig) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, rec := range r.svc.Log.All() {
		out[rec.ID] = fmt.Sprintf("skipped=%v gen=%d resp=%d/%s reads=%d scans=%d writes=%d",
			rec.Skipped, rec.RepairGen, rec.Resp.Status, rec.Resp.Body, len(rec.Reads), len(rec.Scans), len(rec.Writes))
	}
	return out
}

// TestIndexedWalkMatchesLinearReference repairs the same workload with the
// index-driven walk and with the retained full-timeline reference walk and
// requires identical results: the same records repaired, the same
// responses, the same store state, the same outgoing messages.
func TestIndexedWalkMatchesLinearReference(t *testing.T) {
	// The engine runs the precise read check; the subtest keeps its name.
	t.Run("precise=true", func(t *testing.T) {
		indexed := newRig(t, scanRoutes)
		linear := newRig(t, scanRoutes)
		linear.engine.LinearScan = true

		i1, i2 := buildEquivalenceWorkload(t, indexed)
		l1, l2 := buildEquivalenceWorkload(t, linear)
		if i1 != l1 || i2 != l2 {
			t.Fatalf("workloads diverged before repair: %s/%s vs %s/%s", i1, i2, l1, l2)
		}

		actions := func(a1, a2 string) []Action {
			return []Action{
				{Kind: CancelReq, ReqID: a1},
				{Kind: ReplaceReq, ReqID: a2, NewReq: put("y", "fixed")},
				{Kind: CreateReq, NewReq: put("z", "created"), BeforeID: a2},
			}
		}
		ri, err := indexed.engine.Repair(actions(i1, i2))
		if err != nil {
			t.Fatal(err)
		}
		rl, err := linear.engine.Repair(actions(l1, l2))
		if err != nil {
			t.Fatal(err)
		}

		if ri.RepairedRequests != rl.RepairedRequests || ri.RepairedModelOps != rl.RepairedModelOps {
			t.Fatalf("repair counts diverged: indexed %d/%d ops, linear %d/%d ops",
				ri.RepairedRequests, ri.RepairedModelOps, rl.RepairedRequests, rl.RepairedModelOps)
		}
		if ri.TotalRequests != rl.TotalRequests || ri.TotalModelOps != rl.TotalModelOps {
			t.Fatalf("totals diverged: indexed %d/%d, linear %d/%d",
				ri.TotalRequests, ri.TotalModelOps, rl.TotalRequests, rl.TotalModelOps)
		}
		if len(ri.Msgs) != len(rl.Msgs) || len(ri.CreatedIDs) != len(rl.CreatedIDs) {
			t.Fatalf("outputs diverged: %d msgs/%d created vs %d msgs/%d created",
				len(ri.Msgs), len(ri.CreatedIDs), len(rl.Msgs), len(rl.CreatedIDs))
		}

		si, sl := snapshotRecords(t, indexed), snapshotRecords(t, linear)
		if len(si) != len(sl) {
			t.Fatalf("log sizes diverged: %d vs %d", len(si), len(sl))
		}
		for id, v := range sl {
			if si[id] != v {
				t.Errorf("record %s diverged:\n  indexed: %s\n  linear:  %s", id, si[id], v)
			}
		}
		for _, id := range indexed.svc.Store.IDs("kv") {
			vi, _ := indexed.svc.Store.Get(vdb.Key{Model: "kv", ID: id})
			vl, ok := linear.svc.Store.Get(vdb.Key{Model: "kv", ID: id})
			if !ok || vi.Fields["v"] != vl.Fields["v"] {
				t.Errorf("store diverged at %s: indexed %q, linear %q (present=%v)", id, vi.Fields["v"], vl.Fields["v"], ok)
			}
		}
		if hi, hl := indexed.svc.Store.ScanHashAtExcluding("kv", 1<<62, ""), linear.svc.Store.ScanHashAtExcluding("kv", 1<<62, ""); hi != hl {
			t.Errorf("final scan fingerprints diverged: %#x vs %#x", hi, hl)
		}
	})
}

// TestIndexedWalkRepairsCascades pins the rollback-redo cascade on the
// indexed walk: cancelling a write must re-execute the later
// read-modify-write of the same key, and transitively the scan readers.
func TestIndexedWalkRepairsCascades(t *testing.T) {
	r := newRig(t, scanRoutes)
	atk := r.handle(t, put("x", "evil"), false)
	r.handle(t, wire.NewRequest("POST", "/inc").WithForm("key", "x"), false)
	scan := r.handle(t, wire.NewRequest("GET", "/sum"), false)
	r.handle(t, put("unrelated", "ok"), false)

	res, err := r.engine.Repair([]Action{{Kind: CancelReq, ReqID: atk.ID}})
	if err != nil {
		t.Fatal(err)
	}
	// cancel + inc (write rolled back) + sum (membership changed); the
	// unrelated put is never visited, let alone repaired.
	if res.RepairedRequests != 3 {
		t.Fatalf("repaired %d requests, want 3", res.RepairedRequests)
	}
	scanRec, _ := r.svc.Log.Get(scan.ID)
	if want := "x=1;"; string(scanRec.Resp.Body) != want {
		t.Fatalf("scan response not repaired: got %q, want %q", scanRec.Resp.Body, want)
	}
	if v, ok := r.svc.Store.Get(vdb.Key{Model: "kv", ID: "x"}); !ok || v.Fields["v"] != "1" {
		t.Fatalf("inc's re-execution should recreate x from scratch, got %v (present=%v)", v.Fields, ok)
	}
}
