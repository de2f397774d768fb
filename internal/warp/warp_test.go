package warp

import (
	"fmt"
	"strings"
	"testing"

	"aire/internal/orm"
	"aire/internal/repairlog"
	"aire/internal/vdb"
	"aire/internal/web"
	"aire/internal/wire"
)

// rig is a minimal single-service runtime for driving the engine directly
// (without the controller): it executes requests in Normal mode with a
// scripted outbound, and exposes the engine.
type rig struct {
	svc    *web.Service
	engine *Engine
	// remote scripts responses for outgoing calls by target+path.
	remote func(target string, req wire.Request) wire.Response
	nCalls int
}

func newRig(t *testing.T, register func(svc *web.Service)) *rig {
	t.Helper()
	svc := web.NewService("rig")
	svc.TimeSource = func() int64 { return 42 }
	register(svc)
	r := &rig{svc: svc, engine: &Engine{Svc: svc}}
	return r
}

// handle runs one request through the service as the controller would.
func (r *rig) handle(t *testing.T, req wire.Request, aireClient bool) *repairlog.Record {
	t.Helper()
	rec := &repairlog.Record{
		ID:  r.svc.IDs.Request(),
		TS:  r.svc.Clock.Next(),
		Req: req,
	}
	if aireClient {
		rec.ClientRespID = fmt.Sprintf("client-resp-%s", rec.ID)
		rec.NotifierURL = "aire://client/aire/notify"
	}
	exec := &web.Exec{Svc: r.svc, Rec: rec, Mode: web.Normal, Outbound: func(seq int, target string, req wire.Request) (wire.Response, repairlog.Call) {
		r.nCalls++
		respID := r.svc.IDs.Response()
		resp := wire.NewResponse(200, "remote-ok")
		if r.remote != nil {
			resp = r.remote(target, req)
		}
		return resp, repairlog.Call{
			Target: target, RespID: respID,
			RemoteReqID: fmt.Sprintf("%s-req-%d", target, r.nCalls),
			Req:         req.Clone(), Resp: resp,
		}
	}}
	resp := exec.Run()
	rec.Resp = resp
	if err := r.svc.Log.Append(rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// kvRoutes registers put/get/sum plus a /push route that forwards to a peer.
func kvRoutes(svc *web.Service) {
	svc.Schema.Register("kv")
	svc.Router.Handle("POST", "/put", func(c *web.Ctx) wire.Response {
		if err := c.DB.Put("kv", c.Form("key"), orm.Fields("v", c.Form("val"))); err != nil {
			return c.Error(500, err.Error())
		}
		return c.OK("ok")
	})
	svc.Router.Handle("GET", "/get", func(c *web.Ctx) wire.Response {
		o, ok := c.DB.Get("kv", c.Form("key"))
		if !ok {
			return c.Error(404, "missing")
		}
		return c.OK(o.Get("v"))
	})
	svc.Router.Handle("POST", "/push", func(c *web.Ctx) wire.Response {
		// Forward the value of key to the peer named in form "to", unless
		// the value starts with "local:".
		o, ok := c.DB.Get("kv", c.Form("key"))
		if !ok {
			return c.Error(404, "missing")
		}
		if !strings.HasPrefix(o.Get("v"), "local:") {
			c.Call(c.Form("to"), wire.NewRequest("POST", "/sink").WithForm("v", o.Get("v")))
		}
		return c.OK("pushed")
	})
}

func put(key, val string) wire.Request {
	return wire.NewRequest("POST", "/put").WithForm("key", key, "val", val)
}

func TestCancelRollsBackAndIsStable(t *testing.T) {
	r := newRig(t, kvRoutes)
	r.handle(t, put("x", "a"), false)
	atk := r.handle(t, put("x", "b"), false)
	rd := r.handle(t, wire.NewRequest("GET", "/get").WithForm("key", "x"), false)

	res, err := r.engine.Repair([]Action{{Kind: CancelReq, ReqID: atk.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairedRequests != 2 { // cancel + affected read
		t.Fatalf("repaired = %d", res.RepairedRequests)
	}
	rec, _ := r.svc.Log.Get(atk.ID)
	if !rec.Skipped || len(rec.Writes) != 0 {
		t.Fatalf("cancelled record = %+v", rec)
	}
	rdRec, _ := r.svc.Log.Get(rd.ID)
	if string(rdRec.Resp.Body) != "a" {
		t.Fatalf("repaired read = %q", rdRec.Resp.Body)
	}

	// Stability: running repair again with no new actions is impossible by
	// API, but a second unrelated repair must not re-touch anything.
	other := r.handle(t, put("y", "z"), false)
	res2, err := r.engine.Repair([]Action{{Kind: CancelReq, ReqID: other.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.RepairedRequests != 1 {
		t.Fatalf("second repair touched %d requests, want 1", res2.RepairedRequests)
	}
}

func TestReplaceResponseMsgEmittedForAireClients(t *testing.T) {
	r := newRig(t, kvRoutes)
	atk := r.handle(t, put("x", "evil"), false)
	// An Aire-enabled client read x; its response must be repaired.
	rd := r.handle(t, wire.NewRequest("GET", "/get").WithForm("key", "x"), true)

	res, err := r.engine.Repair([]Action{{Kind: CancelReq, ReqID: atk.ID}})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, m := range res.Msgs {
		if m.Kind == OutReplaceResponse && m.RespID == rd.ClientRespID {
			found = true
			if m.NotifierURL != rd.NotifierURL || m.LocalReqID != rd.ID {
				t.Fatalf("bad replace_response: %+v", m)
			}
			if string(m.Resp.Body) != "missing" {
				t.Fatalf("repaired response body = %q", m.Resp.Body)
			}
		}
	}
	if !found {
		t.Fatalf("no replace_response queued: %+v", res.Msgs)
	}
}

func TestNoReplaceResponseForBrowsers(t *testing.T) {
	r := newRig(t, kvRoutes)
	atk := r.handle(t, put("x", "evil"), false)
	r.handle(t, wire.NewRequest("GET", "/get").WithForm("key", "x"), false) // browser
	res, err := r.engine.Repair([]Action{{Kind: CancelReq, ReqID: atk.ID}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Msgs {
		if m.Kind == OutReplaceResponse {
			t.Fatalf("browser clients have no notifier; got %+v", m)
		}
	}
}

func TestCallDiffDelete(t *testing.T) {
	r := newRig(t, kvRoutes)
	r.handle(t, put("k", "shared-data"), false)
	push := r.handle(t, wire.NewRequest("POST", "/push").WithForm("key", "k", "to", "peer"), false)
	if len(push.Calls) != 1 {
		t.Fatalf("calls = %+v", push.Calls)
	}
	// Replace the data with a local: value; replaying /push skips the call.
	res, err := r.engine.Repair([]Action{{
		Kind: ReplaceReq, ReqID: r.svc.Log.All()[0].ID, NewReq: put("k", "local:secret"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var del bool
	for _, m := range res.Msgs {
		if m.Kind == OutDelete && m.Target == "peer" && m.RemoteReqID == "peer-req-1" {
			del = true
		}
	}
	if !del {
		t.Fatalf("expected delete for dropped call: %+v", res.Msgs)
	}
}

func TestCallDiffCreateWithAnchors(t *testing.T) {
	r := newRig(t, kvRoutes)
	// Two pushes establish neighbor calls to "peer".
	r.handle(t, put("k", "local:hidden"), false)
	r.handle(t, put("k2", "first"), false)
	r.handle(t, wire.NewRequest("POST", "/push").WithForm("key", "k2", "to", "peer"), false)
	mid := r.handle(t, wire.NewRequest("POST", "/push").WithForm("key", "k", "to", "peer"), false) // no call (local:)
	r.handle(t, put("k3", "third"), false)
	r.handle(t, wire.NewRequest("POST", "/push").WithForm("key", "k3", "to", "peer"), false)

	// Un-hide k: replaying mid's push now issues a brand-new call.
	res, err := r.engine.Repair([]Action{{
		Kind: ReplaceReq, ReqID: r.svc.Log.All()[0].ID, NewReq: put("k", "revealed"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var created *OutMsg
	for i := range res.Msgs {
		if res.Msgs[i].Kind == OutCreate {
			created = &res.Msgs[i]
		}
	}
	if created == nil {
		t.Fatalf("expected create: %+v", res.Msgs)
	}
	if created.BeforeID != "peer-req-1" || created.AfterID != "peer-req-2" {
		t.Fatalf("create anchors = %q,%q", created.BeforeID, created.AfterID)
	}
	// The replayed handler observed a tentative timeout for the new call.
	midRec, _ := r.svc.Log.Get(mid.ID)
	if len(midRec.Calls) != 1 || !midRec.Calls[0].Tentative || midRec.Calls[0].Resp.Status != wire.StatusTimeout {
		t.Fatalf("created call record = %+v", midRec.Calls)
	}
}

func TestCallDiffReplaceKeepsRemoteIdentity(t *testing.T) {
	r := newRig(t, kvRoutes)
	r.handle(t, put("k", "v1"), false)
	r.handle(t, wire.NewRequest("POST", "/push").WithForm("key", "k", "to", "peer"), false)

	res, err := r.engine.Repair([]Action{{
		Kind: ReplaceReq, ReqID: r.svc.Log.All()[0].ID, NewReq: put("k", "v2"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var rep *OutMsg
	for i := range res.Msgs {
		if res.Msgs[i].Kind == OutReplace {
			rep = &res.Msgs[i]
		}
	}
	if rep == nil {
		t.Fatalf("expected replace: %+v", res.Msgs)
	}
	if rep.RemoteReqID != "peer-req-1" {
		t.Fatalf("replace must name the original remote request: %+v", rep)
	}
	if rep.Req.Form["v"] != "v2" {
		t.Fatalf("replace payload = %+v", rep.Req.Form)
	}
	if rep.RespID == "" || rep.CallRespID != rep.RespID {
		t.Fatalf("replace must mint a fresh response id: %+v", rep)
	}
}

// A re-executed call whose form changed from {a: "b", c: "d"} to
// {a: "b\nc=d"} is a changed call and must queue a replace. The two forms
// once flattened to the same "k=v\n" string, so the call matched, the stale
// logged response was reused and the peer never heard of the change.
func TestCallDiffFormCollisionQueuesReplace(t *testing.T) {
	r := newRig(t, func(svc *web.Service) {
		svc.Schema.Register("kv")
		svc.Router.Handle("POST", "/set", func(c *web.Ctx) wire.Response {
			if err := c.DB.Put("kv", "k", orm.Fields("a", c.Form("a"), "c", c.Form("c"))); err != nil {
				return c.Error(500, err.Error())
			}
			return c.OK("ok")
		})
		svc.Router.Handle("POST", "/fwd", func(c *web.Ctx) wire.Response {
			o, _ := c.DB.Get("kv", "k")
			out := wire.NewRequest("POST", "/sink").WithForm("a", o.Get("a"))
			if v := o.Get("c"); v != "" {
				out = out.WithForm("c", v)
			}
			c.Call("peer", out)
			return c.OK("fwd")
		})
	})
	set := r.handle(t, wire.NewRequest("POST", "/set").WithForm("a", "b", "c", "d"), false)
	r.handle(t, wire.NewRequest("POST", "/fwd"), false)

	calls := r.nCalls
	res, err := r.engine.Repair([]Action{{
		Kind: ReplaceReq, ReqID: set.ID, NewReq: wire.NewRequest("POST", "/set").WithForm("a", "b\nc=d"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.nCalls != calls {
		t.Fatal("replay must not hit the network")
	}
	var rep *OutMsg
	for i := range res.Msgs {
		if res.Msgs[i].Kind == OutReplace {
			rep = &res.Msgs[i]
		}
	}
	if rep == nil {
		t.Fatalf("changed form must queue a replace, got %+v", res.Msgs)
	}
	if len(rep.Req.Form) != 1 || rep.Req.Form["a"] != "b\nc=d" {
		t.Fatalf("replace payload = %q", rep.Req.Form)
	}
}

// A re-executed request that read a confidential object originally but no
// longer does is reported as a leak (§9); one that still reads it is not.
func TestReexecutionLeakNotices(t *testing.T) {
	for _, tc := range []struct {
		gate string
		leak bool
	}{{"closed", true}, {"open again", false}} {
		r := newRig(t, func(svc *web.Service) {
			kvRoutes(svc)
			svc.Router.Handle("GET", "/peek", func(c *web.Ctx) wire.Response {
				if g, _ := c.DB.Get("kv", "gate"); strings.HasPrefix(g.Get("v"), "open") {
					s, _ := c.DB.Get("kv", "secret")
					return c.OK(s.Get("v"))
				}
				return c.Error(403, "closed")
			})
		})
		r.handle(t, put("secret", "s3cr3t"), false)
		r.svc.Store.MarkConfidential(vdb.Key{Model: "kv", ID: "secret"})
		attack := r.handle(t, put("gate", "open"), false)
		r.handle(t, wire.NewRequest("GET", "/peek"), false)

		res, err := r.engine.Repair([]Action{{Kind: ReplaceReq, ReqID: attack.ID, NewReq: put("gate", tc.gate)}})
		if err != nil {
			t.Fatal(err)
		}
		leak := false
		for _, n := range res.Notices {
			leak = leak || n.Kind == NoticeLeak
		}
		if leak != tc.leak {
			t.Errorf("gate %q: leak notice = %v, want %v (%+v)", tc.gate, leak, tc.leak, res.Notices)
		}
	}
}

func TestCallDiffMatchReusesLoggedResponse(t *testing.T) {
	r := newRig(t, kvRoutes)
	r.handle(t, put("k", "same"), false)
	push := r.handle(t, wire.NewRequest("POST", "/push").WithForm("key", "k", "to", "peer"), false)
	probe := r.handle(t, wire.NewRequest("GET", "/get").WithForm("key", "k"), false)
	_ = probe

	// Repairing an unrelated request that forces /push re-execution via its
	// read of k — but with the same value, the call matches and no message
	// is sent to peer.
	calls := r.nCalls
	res, err := r.engine.Repair([]Action{{
		Kind: ReplaceReq, ReqID: r.svc.Log.All()[0].ID, NewReq: put("k", "same"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Msgs {
		if m.Target == "peer" {
			t.Fatalf("matching call must not produce repair messages: %+v", m)
		}
	}
	if r.nCalls != calls {
		t.Fatal("replay must not hit the network for matching calls")
	}
	pushRec, _ := r.svc.Log.Get(push.ID)
	if pushRec.Calls[0].RemoteReqID != "peer-req-1" {
		t.Fatal("matched call lost its remote identity")
	}
}

func TestUnpropagatableCallNotice(t *testing.T) {
	r := newRig(t, kvRoutes)
	r.handle(t, put("k", "data"), false)
	// Simulate a call whose peer was not Aire-enabled: blank RemoteReqID.
	push := r.handle(t, wire.NewRequest("POST", "/push").WithForm("key", "k", "to", "peer"), false)
	_ = r.svc.Log.Update(push.ID, func(rec *repairlog.Record) {
		rec.Calls[0].RemoteReqID = ""
	})

	res, err := r.engine.Repair([]Action{{Kind: CancelReq, ReqID: push.ID}})
	if err != nil {
		t.Fatal(err)
	}
	var notice bool
	for _, n := range res.Notices {
		if n.Kind == NoticeNoPropagation {
			notice = true
		}
	}
	if !notice {
		t.Fatalf("expected no-propagation notice: %+v", res.Notices)
	}
}

func TestCreateRequestInThePast(t *testing.T) {
	r := newRig(t, kvRoutes)
	first := r.handle(t, put("a", "1"), false)
	rd := r.handle(t, wire.NewRequest("GET", "/get").WithForm("key", "b"), false) // miss
	if rd.Resp.Status != 404 {
		t.Fatalf("precondition: read should miss")
	}

	res, err := r.engine.Repair([]Action{{
		Kind:   CreateReq,
		NewReq: put("b", "42"),
		// Between the first put and the read.
		BeforeID: first.ID, AfterID: rd.ID,
		From: "peer", ClientRespID: "peer-resp-9", NotifierURL: "aire://peer/aire/notify",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CreatedIDs) != 1 {
		t.Fatalf("created ids = %v", res.CreatedIDs)
	}
	// The created request ran and the later read now sees b.
	rdRec, _ := r.svc.Log.Get(rd.ID)
	if string(rdRec.Resp.Body) != "42" {
		t.Fatalf("read after create = %q", rdRec.Resp.Body)
	}
	// Its response goes back to the creator via replace_response.
	var toCreator bool
	for _, m := range res.Msgs {
		if m.Kind == OutReplaceResponse && m.RespID == "peer-resp-9" {
			toCreator = true
		}
	}
	if !toCreator {
		t.Fatalf("created request's response not propagated: %+v", res.Msgs)
	}
	// The created record sits between its anchors on the timeline.
	cRec, _ := r.svc.Log.Get(res.CreatedIDs[0])
	if !(cRec.TS > first.TS && cRec.TS < rd.TS) {
		t.Fatalf("created TS %d not in (%d, %d)", cRec.TS, first.TS, rd.TS)
	}
	if !cRec.Synthetic {
		t.Fatal("created record must be marked synthetic")
	}
}

func TestErrorPaths(t *testing.T) {
	r := newRig(t, kvRoutes)
	r.handle(t, put("a", "1"), false)

	if _, err := r.engine.Repair([]Action{{Kind: CancelReq, ReqID: "nope"}}); err == nil {
		t.Fatal("cancel of unknown request must fail")
	}
	if _, err := r.engine.Repair([]Action{{Kind: CreateReq, NewReq: put("b", "2"), BeforeID: "nope"}}); err == nil {
		t.Fatal("create with unknown anchor must fail")
	}
	if _, err := r.engine.Repair([]Action{{Kind: ReplaceCallResp, RespID: "nope"}}); err == nil {
		t.Fatal("replace_response for unknown call must fail")
	}
	if _, err := r.engine.Repair(nil); err == nil {
		t.Fatal("empty repair must fail")
	}

	// Garbage collection converts unknown-request into ErrGarbageCollected.
	r.svc.Log.GC(r.svc.Clock.Now() + 1)
	_, err := r.engine.Repair([]Action{{Kind: CancelReq, ReqID: "ancient"}})
	if err == nil || !strings.Contains(err.Error(), "garbage-collected") {
		t.Fatalf("want garbage-collected error, got %v", err)
	}
}

func TestReplaceCallRespTriggersReexecution(t *testing.T) {
	r := newRig(t, func(svc *web.Service) {
		svc.Schema.Register("kv")
		svc.Router.Handle("POST", "/fetch", func(c *web.Ctx) wire.Response {
			resp := c.Call("up", wire.NewRequest("GET", "/v"))
			if err := c.DB.Put("kv", "cache", orm.Fields("v", string(resp.Body))); err != nil {
				return c.Error(500, err.Error())
			}
			return c.OK("cached")
		})
	})
	r.remote = func(target string, req wire.Request) wire.Response {
		return wire.NewResponse(200, "old-value")
	}
	fetch := r.handle(t, wire.NewRequest("POST", "/fetch"), false)
	respID := fetch.Calls[0].RespID

	res, err := r.engine.Repair([]Action{{
		Kind: ReplaceCallResp, RespID: respID,
		NewResp: wire.NewResponse(200, "new-value"), RemoteReqID: "up-req-42",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairedRequests != 1 {
		t.Fatalf("repaired = %d", res.RepairedRequests)
	}
	v, ok := r.svc.Store.Get(vdb.Key{Model: "kv", ID: "cache"})
	if !ok || v.Fields["v"] != "new-value" {
		t.Fatalf("cache = %+v %v", v, ok)
	}
	rec, _ := r.svc.Log.Get(fetch.ID)
	if rec.Calls[0].RemoteReqID != "up-req-42" {
		t.Fatal("call record did not learn the remote request id")
	}
}

func TestIdempotentReplaceSkipsReaders(t *testing.T) {
	// A request is replaced by a semantically identical one. The read
	// check notices the downstream reader observes the same value and
	// skips it: only the replaced request is repaired.
	r := newRig(t, kvRoutes)
	target := r.handle(t, put("y", "same-value"), false)
	r.handle(t, wire.NewRequest("GET", "/get").WithForm("key", "y"), false)
	res, err := r.engine.Repair([]Action{{
		Kind: ReplaceReq, ReqID: target.ID, NewReq: put("y", "same-value"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairedRequests != 1 {
		t.Fatalf("repaired %d, want 1 (just the replaced request)", res.RepairedRequests)
	}
}
