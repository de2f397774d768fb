package warp

import (
	"fmt"
	"testing"
	"testing/quick"

	"aire/internal/orm"
	"aire/internal/repairlog"
	"aire/internal/web"
	"aire/internal/wire"
)

// TestReplayDeterminismProperty is §3.3's stability precondition as a
// property test: repairing the same request twice in a row (an idempotent
// replace) leaves the service byte-for-byte stable — same responses, same
// write sets, no new repair messages — for handlers that consume time,
// randomness, and derived IDs.
func TestReplayDeterminismProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 || len(vals) > 20 {
			return true
		}
		r := newRig(t, func(svc *web.Service) {
			svc.Schema.Register("kv")
			svc.Router.Handle("POST", "/op", func(c *web.Ctx) wire.Response {
				// A handler soaking in nondeterminism: derived IDs, time,
				// randomness, and data-dependent writes.
				id := c.NewID()
				when := c.Now()
				coin := c.Rand() % 2
				val := fmt.Sprintf("%s@%d", c.Form("v"), when)
				if err := c.DB.Put("kv", id, orm.Fields("v", val)); err != nil {
					return c.Error(500, err.Error())
				}
				if coin == 0 {
					if err := c.DB.Put("kv", "even-"+c.Form("v"), orm.Fields("v", val)); err != nil {
						return c.Error(500, err.Error())
					}
				}
				return c.OK(id + "/" + val)
			})
		})
		// Real wall-clock-ish sources to prove recording works.
		tick := int64(1000)
		r.svc.TimeSource = func() int64 { tick += 7; return tick }

		var ids []string
		for _, v := range vals {
			rec := r.handle(t, wire.NewRequest("POST", "/op").WithForm("v", fmt.Sprint(v)), false)
			ids = append(ids, rec.ID)
		}
		target := ids[int(vals[0])%len(ids)]
		rec, _ := r.svc.Log.Get(target)
		input := rec.Req.Clone()

		snapshot := func() string {
			out := ""
			for _, rr := range r.svc.Log.All() {
				out += rr.ID + "=>" + string(rr.Resp.Body) + ";"
				for _, w := range rr.Writes {
					out += w.Key.String() + ","
				}
			}
			return out
		}

		// First idempotent replace.
		res1, err := r.engine.Repair([]Action{{Kind: ReplaceReq, ReqID: target, NewReq: input}})
		if err != nil {
			t.Fatalf("repair 1: %v", err)
		}
		s1 := snapshot()
		// Second: must be a fixed point.
		res2, err := r.engine.Repair([]Action{{Kind: ReplaceReq, ReqID: target, NewReq: input}})
		if err != nil {
			t.Fatalf("repair 2: %v", err)
		}
		s2 := snapshot()
		if s1 != s2 {
			t.Logf("state diverged:\n%s\n%s", s1, s2)
			return false
		}
		// Only the directly-targeted request may re-execute on the second
		// pass (its deps are all unchanged).
		if res2.RepairedRequests > res1.RepairedRequests {
			t.Logf("second repair grew: %d then %d", res1.RepairedRequests, res2.RepairedRequests)
			return false
		}
		if len(res2.Msgs) != 0 {
			t.Logf("fixed-point repair emitted messages: %+v", res2.Msgs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLocalRepair measures the engine's rollback+replay cost on a log
// where a fixed fraction of requests is affected.
func BenchmarkLocalRepair(b *testing.B) {
	for _, total := range []int{100, 500} {
		b.Run(fmt.Sprintf("log=%d", total), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := newRigB(b)
				atk := r.handle2(b, put("hot", "evil"))
				for j := 0; j < total; j++ {
					if j%5 == 0 {
						r.handle2(b, wire.NewRequest("GET", "/get").WithForm("key", "hot"))
					} else {
						r.handle2(b, put(fmt.Sprintf("cold%d", j), "x"))
					}
				}
				b.StartTimer()
				if _, err := r.engine.Repair([]Action{{Kind: CancelReq, ReqID: atk.ID}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newRigB / handle2 are Benchmark-friendly variants of the test rig.
func newRigB(b *testing.B) *rig {
	b.Helper()
	svc := web.NewService("rig")
	svc.TimeSource = func() int64 { return 42 }
	kvRoutes(svc)
	return &rig{svc: svc, engine: &Engine{Svc: svc}}
}

func (r *rig) handle2(b *testing.B, req wire.Request) *repairlog.Record {
	b.Helper()
	rec := &repairlog.Record{
		ID:  r.svc.IDs.Request(),
		TS:  r.svc.Clock.Next(),
		Req: req,
	}
	exec := &web.Exec{Svc: r.svc, Rec: rec, Mode: web.Normal, Outbound: func(seq int, target string, req wire.Request) (wire.Response, repairlog.Call) {
		return wire.NewResponse(200, "remote-ok"), repairlog.Call{Target: target}
	}}
	rec.Resp = exec.Run()
	if err := r.svc.Log.Append(rec); err != nil {
		b.Fatal(err)
	}
	return rec
}
