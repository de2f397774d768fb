package core

import (
	"strings"
	"testing"

	"aire/internal/warp"
	"aire/internal/wire"
)

// TestRepairProtocol drives all four Table 1 operations through the wire
// API (not ApplyLocal), as a peer service would.
func TestRepairProtocol(t *testing.T) {
	tb := newTestbed()
	tb.add(&kvApp{name: "store"}, DefaultConfig())

	first := tb.call("store", put("x", "v1"))
	second := tb.call("store", put("y", "v2"))

	// replace.
	newReq := put("x", "v1-fixed")
	rep := wire.NewRequest("POST", "/aire/repair").WithHeader(
		wire.HdrRepair, "replace", wire.HdrRequestID, first.Header[wire.HdrRequestID])
	rep.Body = newReq.Encode()
	if resp := tb.call("store", rep); !resp.OK() {
		t.Fatalf("replace: %d %s", resp.Status, resp.Body)
	}
	if got := string(tb.call("store", get("x")).Body); got != "v1-fixed" {
		t.Fatalf("after replace x = %q", got)
	}

	// create between first and second.
	mk := put("z", "created")
	cre := wire.NewRequest("POST", "/aire/repair").WithHeader(wire.HdrRepair, "create")
	cre.Form["before_id"] = first.Header[wire.HdrRequestID]
	cre.Form["after_id"] = second.Header[wire.HdrRequestID]
	cre.Body = mk.Encode()
	cresp := tb.call("store", cre)
	if !cresp.OK() {
		t.Fatalf("create: %d %s", cresp.Status, cresp.Body)
	}
	createdID := cresp.Header[wire.HdrRequestID]
	if createdID == "" {
		t.Fatal("create must return the new request's ID")
	}
	if got := string(tb.call("store", get("z")).Body); got != "created" {
		t.Fatalf("after create z = %q", got)
	}

	// delete the created request by its returned ID.
	del := wire.NewRequest("POST", "/aire/repair").WithHeader(
		wire.HdrRepair, "delete", wire.HdrRequestID, createdID)
	if resp := tb.call("store", del); !resp.OK() {
		t.Fatalf("delete: %d %s", resp.Status, resp.Body)
	}
	if resp := tb.call("store", get("z")); resp.Status != 404 {
		t.Fatalf("after delete z: %d", resp.Status)
	}
}

func TestRepairAPIErrorPaths(t *testing.T) {
	tb := newTestbed()
	c := tb.add(&kvApp{name: "store"}, DefaultConfig())
	real := tb.call("store", put("x", "v"))

	cases := []struct {
		name   string
		req    wire.Request
		status int
	}{
		{"unknown op", wire.NewRequest("POST", "/aire/repair").WithHeader(
			wire.HdrRepair, "explode", wire.HdrRequestID, real.Header[wire.HdrRequestID]), 400},
		{"missing target", wire.NewRequest("POST", "/aire/repair").WithHeader(
			wire.HdrRepair, "delete", wire.HdrRequestID, "no-such-id"), 404},
		{"bad replace payload", func() wire.Request {
			r := wire.NewRequest("POST", "/aire/repair").WithHeader(
				wire.HdrRepair, "replace", wire.HdrRequestID, real.Header[wire.HdrRequestID])
			r.Body = []byte("{not json")
			return r
		}(), 400},
		{"bad create payload", func() wire.Request {
			r := wire.NewRequest("POST", "/aire/repair").WithHeader(wire.HdrRepair, "create")
			r.Body = []byte("nope")
			return r
		}(), 400},
		{"create with unknown anchor", func() wire.Request {
			r := wire.NewRequest("POST", "/aire/repair").WithHeader(wire.HdrRepair, "create")
			r.Form["before_id"] = "ghost"
			r.Body = put("q", "1").Encode()
			return r
		}(), 400},
	}
	for _, tc := range cases {
		if resp := tb.call("store", tc.req); resp.Status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.Status, tc.status, resp.Body)
		}
	}
	// State untouched by all the failures.
	if got := string(tb.call("store", get("x")).Body); got != "v" {
		t.Fatalf("error paths mutated state: %q", got)
	}
	// After GC, missing targets are permanently unavailable (410).
	c.GC(c.Svc.Clock.Now() + 1)
	gone := wire.NewRequest("POST", "/aire/repair").WithHeader(
		wire.HdrRepair, "delete", wire.HdrRequestID, "ancient")
	if resp := tb.call("store", gone); resp.Status != 410 {
		t.Fatalf("post-GC repair: %d, want 410", resp.Status)
	}
}

func TestTokenHandshakeSecurity(t *testing.T) {
	tb := newTestbed()
	store := tb.add(&kvApp{name: "store"}, DefaultConfig())
	tb.add(&kvApp{name: "reader", upstream: "store"}, DefaultConfig())
	tb.add(&kvApp{name: "eve"}, DefaultConfig())

	tb.call("store", put("x", "a"))
	attack := tb.call("store", put("x", "b"))
	tb.call("reader", wire.NewRequest("POST", "/fetch").WithForm("key", "x"))

	if _, err := store.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	// Deliver the notify but intercept the token to test fetch security:
	// only the addressed audience may fetch the payload.
	pend := store.Pending()
	if len(pend) != 1 || pend[0].Msg.Kind != warp.OutReplaceResponse {
		t.Fatalf("pending = %+v", pend)
	}
	store.Flush() // mints + delivers the token to reader, which applies it

	// A replayed fetch by another service must fail (token consumed and
	// audience-checked).
	fetch := wire.NewRequest("POST", "/aire/fetch_repair").WithForm("token", "store-tok-guess")
	if resp, _ := tb.bus.Call("eve", "store", fetch); resp.Status != 404 {
		t.Fatalf("guessed token: %d", resp.Status)
	}
}

func TestNotifyValidation(t *testing.T) {
	tb := newTestbed()
	tb.add(&kvApp{name: "reader", upstream: "store"}, DefaultConfig())
	tb.add(&kvApp{name: "store"}, DefaultConfig())

	// Missing fields.
	if resp := tb.call("reader", wire.NewRequest("POST", "/aire/notify")); resp.Status != 400 {
		t.Fatalf("empty notify: %d", resp.Status)
	}
	// Server that does not exist.
	bad := wire.NewRequest("POST", "/aire/notify").WithForm("token", "t", "server", "ghost")
	if resp := tb.call("reader", bad); resp.Status != 503 {
		t.Fatalf("notify with unknown server: %d", resp.Status)
	}
	// Server exists but token is unknown -> fetch fails -> 502.
	bad2 := wire.NewRequest("POST", "/aire/notify").WithForm("token", "t", "server", "store")
	if resp := tb.call("reader", bad2); resp.Status != 502 {
		t.Fatalf("notify with bogus token: %d", resp.Status)
	}
}

// TestSpoofedReplaceResponseRejected: a malicious service cannot repair a
// response produced by someone else — the client verifies the call's
// recorded target against the notifying server (§3.1's authentication).
func TestSpoofedReplaceResponseRejected(t *testing.T) {
	tb := newTestbed()
	tb.add(&kvApp{name: "reader", upstream: "store"}, DefaultConfig())
	tb.add(&kvApp{name: "store"}, DefaultConfig())
	evil := tb.add(&kvApp{name: "evil"}, DefaultConfig())

	tb.call("store", put("x", "a"))
	fetch := tb.call("reader", wire.NewRequest("POST", "/fetch").WithForm("key", "x"))
	if !fetch.OK() {
		t.Fatalf("fetch: %+v", fetch)
	}
	rec, _, ok := tb.ctrls["reader"].Svc.Log.FindByCallRespID(findRespID(t, tb, "reader"))
	if !ok {
		t.Fatal("no call record")
	}
	_ = rec

	// evil crafts a replace_response for the reader's response to store.
	evil.enqueueSpoof(t, findRespID(t, tb, "reader"))
	evil.Flush()

	// The reader's cached value must be unchanged.
	v, ok := readCache(tb, "reader", "x")
	if !ok || v != "a" {
		t.Fatalf("spoofed replace_response took effect: %q %v", v, ok)
	}
	_ = strings.TrimSpace
}

// findRespID digs out the RespID of the reader's first upstream call.
func findRespID(t *testing.T, tb *testbed, svc string) string {
	t.Helper()
	for _, r := range tb.ctrls[svc].Svc.Log.All() {
		for _, c := range r.Calls {
			return c.RespID
		}
	}
	t.Fatal("no calls logged")
	return ""
}

// enqueueSpoof injects a forged replace_response into evil's outgoing queue
// aimed at the reader.
func (c *Controller) enqueueSpoof(t *testing.T, respID string) {
	t.Helper()
	c.enqueue([]warp.OutMsg{{
		Kind:        warp.OutReplaceResponse,
		RespID:      respID,
		Resp:        wire.NewResponse(200, "forged"),
		NotifierURL: "aire://reader/aire/notify",
		LocalReqID:  "evil-req-999",
	}}, traceCtx{})
}

func TestDropAbandonsMessage(t *testing.T) {
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	tb.add(&kvApp{name: "b"}, DefaultConfig())
	attack := tb.call("a", put("x", "evil"))
	tb.settle(10)
	tb.bus.SetOffline("b", true)
	a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]})
	if a.QueueLen() != 1 {
		t.Fatalf("queue = %d", a.QueueLen())
	}
	pend := a.Pending()
	if err := a.Drop(pend[0].DeliveryID); err != nil {
		t.Fatal(err)
	}
	if a.QueueLen() != 0 {
		t.Fatal("drop did not remove the message")
	}
	if err := a.Drop("nope"); err == nil {
		t.Fatal("dropping unknown message must fail")
	}
	if err := a.Retry("nope", nil); err == nil {
		t.Fatal("retrying unknown message must fail")
	}
}

func TestStatsCounters(t *testing.T) {
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	tb.add(&kvApp{name: "b"}, DefaultConfig())
	tb.call("a", put("keep", "v"))
	attack := tb.call("a", put("x", "evil"))
	tb.settle(10)
	a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]})
	tb.settle(10)

	st := a.Stats()
	if st.Requests == 0 || st.RepairsRun == 0 || st.MsgsQueued == 0 || st.MsgsDelivered == 0 {
		t.Fatalf("stats = %+v", st)
	}
	rr, tr, ro, to := a.RepairCounts()
	if rr == 0 || tr == 0 || ro < 0 || to <= 0 {
		t.Fatalf("repair counts = %d %d %d %d", rr, tr, ro, to)
	}
	if a.RepairDuration() <= 0 {
		t.Fatal("repair duration not recorded")
	}
}

func TestBlastRadius(t *testing.T) {
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	tb.add(&kvApp{name: "b"}, DefaultConfig())
	attack := tb.call("a", put("x", "evil"))
	probe := tb.call("a", get("x"))
	tb.call("a", get("y")) // unrelated miss
	tb.settle(10)

	radius := a.BlastRadius(attack.Header[wire.HdrRequestID])
	found := map[string]bool{}
	for _, id := range radius {
		found[id] = true
	}
	if !found[probe.Header[wire.HdrRequestID]] {
		t.Fatalf("blast radius misses the reader: %v", radius)
	}
	var remote bool
	for _, id := range radius {
		if strings.HasPrefix(id, "b/") {
			remote = true
		}
	}
	if !remote {
		t.Fatalf("blast radius misses the remote call: %v", radius)
	}
}
