package warp

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"aire/internal/orm"
	"aire/internal/repairlog"
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

// walkLinear is the reference Phase 2: it runs every record from the
// earliest directed one through the dependency gate. It needs no taint:
// every record it could have to re-execute is visited anyway.
func walkLinear(e *Engine, direct map[string]*directive, res *Result) {
	t0 := int64(-1)
	for id := range direct {
		if ts, ok := e.Svc.Log.TSOf(id); ok && (t0 < 0 || ts < t0) {
			t0 = ts
		}
	}
	noTaint := func([]repairlog.WriteDep) {}
	for _, rec := range e.Svc.Log.From(t0) {
		e.processRecord(rec, direct[rec.ID], res, noTaint)
	}
}

// repairBoth runs one repair on each rig, Repair's indexed walk on
// indexed and walkLinear on linear, and requires identical outcomes: every
// Result field but Examined and the timings, every log record, and the
// store's every version. The indexed walk may examine no more records
// than the reference. It returns both results.
func repairBoth(t *testing.T, indexed, linear *rig, actions []Action) (ri, rl *Result) {
	t.Helper()
	ri, err := indexed.engine.Repair(actions)
	if err != nil {
		t.Fatal(err)
	}
	if rl, err = linear.engine.repair(actions, walkLinear); err != nil {
		t.Fatal(err)
	}
	if ri.Examined > rl.Examined {
		t.Errorf("indexed walk examined %d records, the reference %d", ri.Examined, rl.Examined)
	}
	ci, cl := *ri, *rl
	for _, r := range []*Result{&ci, &cl} {
		r.Examined, r.Duration, r.PhaseDurations = 0, 0, [4]time.Duration{}
	}
	if !reflect.DeepEqual(ci, cl) {
		t.Fatalf("results diverged:\n  indexed: %+v\n  linear:  %+v", ci, cl)
	}
	li, ll := indexed.svc.Log.All(), linear.svc.Log.All()
	if len(li) != len(ll) {
		t.Fatalf("log sizes diverged: %d vs %d", len(li), len(ll))
	}
	for i := range li {
		if !reflect.DeepEqual(li[i], ll[i]) {
			t.Errorf("record %d diverged:\n  indexed: %+v\n  linear:  %+v", i, li[i], ll[i])
		}
	}
	if di, dl := indexed.svc.Store.Dump(), linear.svc.Store.Dump(); !reflect.DeepEqual(di, dl) {
		t.Errorf("stores diverged:\n  indexed: %+v\n  linear:  %+v", di, dl)
	}
	return ri, rl
}

// progRoutes is kvRoutes plus POST /prog, which runs generated program i
// (genProgs) as a handler. A get or list folds what it saw into the
// request's digest, and a put writes the digest, so a put after a read of
// its own key is a read-modify-write. Programs whose digest has even
// length call the peer halfway through and fold in the reply, so repair
// can change, add and drop calls; every third program reports an
// external effect.
func progRoutes(progs [][]progOp) func(*web.Service) {
	return func(svc *web.Service) {
		kvRoutes(svc)
		svc.Schema.Register("a")
		svc.Schema.Register("b")
		svc.Router.Handle("POST", "/prog", func(c *web.Ctx) wire.Response {
			i, _ := strconv.Atoi(c.Form("i"))
			seen := fnv.New64a()
			digest := func() string { return strconv.FormatUint(seen.Sum64(), 36) }
			for n, op := range progs[i] {
				if n == len(progs[i])/2 && len(digest())%2 == 0 {
					seen.Write(c.Call("peer", wire.NewRequest("POST", "/sink").WithForm("v", digest())).Body)
				}
				switch op.kind {
				case 'g':
					if o, ok := c.DB.Get(op.model, op.key); ok {
						seen.Write([]byte(o.Get("v")))
					}
				case 'l':
					for _, o := range c.DB.List(op.model) {
						seen.Write([]byte(o.ID + "=" + o.Get("v")))
					}
				case 'p':
					_ = c.DB.Put(op.model, op.key, orm.Fields("v", digest()))
				case 'd':
					_ = c.DB.Delete(op.model, op.key)
				}
			}
			if i%3 == 0 {
				c.Effect("mail", digest())
			}
			return c.OK(digest())
		})
	}
}

// seededWorkload drives a rig through a generated workload — 24 programs
// among unrelated puts and reads — and returns the IDs of the program
// requests.
func seededWorkload(t *testing.T, r *rig, rng *rand.Rand) []string {
	t.Helper()
	var ids []string
	for i := 0; i < 24; i++ {
		ids = append(ids, r.handle(t, wire.NewRequest("POST", "/prog").WithForm("i", strconv.Itoa(i)), i%3 == 0).ID)
		if rng.Intn(2) == 0 {
			key := fmt.Sprintf("u%d", i)
			r.handle(t, put(key, "clean"), false)
			r.handle(t, wire.NewRequest("GET", "/get").WithForm("key", key), false)
		}
	}
	return ids
}

// seededActions draws a first repair round over the program requests: a
// cancel, a replace by another program, a create in the past between two
// requests and a corrected call response, each with probability 1/2 and at
// least one of them.
func seededActions(rng *rand.Rand, r *rig, ids []string) []Action {
	prog := func() wire.Request {
		return wire.NewRequest("POST", "/prog").WithForm("i", strconv.Itoa(rng.Intn(len(ids))))
	}
	var actions []Action
	for len(actions) == 0 {
		if rng.Intn(2) == 0 {
			actions = append(actions, Action{Kind: CancelReq, ReqID: ids[rng.Intn(len(ids))]})
		}
		if rng.Intn(2) == 0 {
			actions = append(actions, Action{Kind: ReplaceReq, ReqID: ids[rng.Intn(len(ids))], NewReq: prog()})
		}
		if rng.Intn(2) == 0 {
			k := rng.Intn(len(ids) - 1)
			actions = append(actions, Action{Kind: CreateReq, NewReq: prog(), BeforeID: ids[k], AfterID: ids[k+1]})
		}
		if rng.Intn(2) == 0 {
			var calls []string
			for _, rec := range r.svc.Log.All() {
				for _, c := range rec.Calls {
					calls = append(calls, c.RespID)
				}
			}
			if len(calls) > 0 {
				actions = append(actions, Action{Kind: ReplaceCallResp, RespID: calls[rng.Intn(len(calls))], NewResp: wire.NewResponse(200, "corrected")})
			}
		}
	}
	return actions
}

// rerepairActions draws a second round over records the first one
// repaired: one is replaced by another program, and one (a created record
// when there is one) is cancelled.
func rerepairActions(rng *rand.Rand, r *rig, created []string, progs int) []Action {
	var repaired []string
	for _, rec := range r.svc.Log.All() {
		if rec.RepairGen > 0 || rec.Skipped {
			repaired = append(repaired, rec.ID)
		}
	}
	repaired = append(repaired, created...)
	return []Action{
		{Kind: ReplaceReq, ReqID: repaired[rng.Intn(len(repaired))], NewReq: wire.NewRequest("POST", "/prog").WithForm("i", strconv.Itoa(rng.Intn(progs)))},
		{Kind: CancelReq, ReqID: repaired[len(repaired)-1]},
	}
}

// TestIndexedWalkMatchesLinearReference repairs the same workload with the
// index-driven walk and with the full-timeline reference walk and requires
// identical results (repairBoth). The fixed workload cancels, replaces and
// creates over writes, reads, scans and read-modify-write chains; each
// seeded one runs generated programs (genProgs), then a second repair
// round over records the first already repaired. The seeded workloads
// must between them queue every kind of message, raise notices, and let
// the indexed walk skip records the reference examines.
func TestIndexedWalkMatchesLinearReference(t *testing.T) {
	// The engine runs the precise read check; the subtest keeps its name.
	t.Run("precise=true", func(t *testing.T) {
		indexed := newRig(t, scanRoutes)
		linear := newRig(t, scanRoutes)
		i1, i2 := buildEquivalenceWorkload(t, indexed)
		l1, l2 := buildEquivalenceWorkload(t, linear)
		if i1 != l1 || i2 != l2 {
			t.Fatalf("workloads diverged before repair: %s/%s vs %s/%s", i1, i2, l1, l2)
		}
		repairBoth(t, indexed, linear, []Action{
			{Kind: CancelReq, ReqID: i1},
			{Kind: ReplaceReq, ReqID: i2, NewReq: put("y", "fixed")},
			{Kind: CreateReq, NewReq: put("z", "created"), BeforeID: i2},
		})
	})
	const seeds = 24
	msgs := map[OutKind]int{}
	notices, skipped := 0, 0
	tally := func(ri, rl *Result) {
		for _, m := range ri.Msgs {
			msgs[m.Kind]++
		}
		notices += len(ri.Notices)
		skipped += rl.Examined - ri.Examined
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			progs := genProgs(rand.New(rand.NewSource(seed)), 24)
			indexed, linear := newRig(t, progRoutes(progs)), newRig(t, progRoutes(progs))
			rng := rand.New(rand.NewSource(seed))
			ids := seededWorkload(t, indexed, rng)
			rng = rand.New(rand.NewSource(seed))
			if lids := seededWorkload(t, linear, rng); !slices.Equal(ids, lids) {
				t.Fatalf("workloads diverged before repair")
			}
			tally(repairBoth(t, indexed, linear, seededActions(rng, indexed, ids)))
			var created []string
			for _, rec := range indexed.svc.Log.All() {
				if rec.Synthetic {
					created = append(created, rec.ID)
				}
			}
			tally(repairBoth(t, indexed, linear, rerepairActions(rng, indexed, created, len(progs))))
		})
	}
	t.Logf("messages %v, %d notices, %d records examined only by the reference", msgs, notices, skipped)
	if len(msgs) < 4 || notices == 0 || skipped == 0 {
		t.Fatal("the seeded workloads no longer exercise every message kind, notices, or a record the index skips")
	}
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
