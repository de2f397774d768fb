package core

import (
	"strings"
	"testing"

	"aire/internal/vdb"
	"aire/internal/warp"
	"aire/internal/wire"
)

func kvKey(id string) vdb.Key    { return vdb.Key{Model: "kv", ID: id} }
func cacheKey(id string) vdb.Key { return vdb.Key{Model: "cache", ID: id} }

func TestOfflinePeerQueuesRepair(t *testing.T) {
	// §7.2: local repair completes while the peer is down; the repair
	// message waits in the outgoing queue and lands when the peer returns.
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	tb.add(&kvApp{name: "b"}, DefaultConfig())

	attack := tb.call("a", put("x", "evil"))
	tb.settle(10)

	tb.bus.SetOffline("b", true)
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	tb.settle(1) // single flush attempt while offline

	// a is already repaired (asynchronous repair, §3).
	if resp := tb.call("a", get("x")); resp.Status != 404 {
		t.Fatalf("a not repaired while b offline: %d %q", resp.Status, resp.Body)
	}
	if a.QueueLen() == 0 {
		t.Fatal("repair message for b should be queued")
	}

	tb.bus.SetOffline("b", false)
	// Back online but before the queue drains: b still holds corrupt state.
	if got := string(tb.call("b", get("x")).Body); got != "evil" {
		t.Fatalf("b = %q before queue drain", got)
	}
	tb.settle(10)
	if resp := tb.call("b", get("x")); resp.Status != 404 {
		t.Fatalf("b not repaired after coming online: %d %q", resp.Status, resp.Body)
	}
	if a.QueueLen() != 0 {
		t.Fatalf("queue should drain, %d left", a.QueueLen())
	}
}

func TestNeverOnlinePeerNotifiesAdmin(t *testing.T) {
	// §7.2: "Aire on Askbot timed out attempting to send the delete message
	// to Dpaste, and notified the Askbot administrator."
	tb := newTestbed()
	app := &kvApp{name: "a", mirror: "b"}
	a := tb.add(app, DefaultConfig())
	tb.add(&kvApp{name: "b"}, DefaultConfig())

	attack := tb.call("a", put("x", "evil"))
	tb.settle(10)
	tb.bus.SetOffline("b", true)

	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < MaxAttempts+1; i++ {
		a.Flush()
	}

	var unreachable bool
	for _, n := range a.Notifications() {
		if n.Kind == "unreachable" && n.Target == "b" {
			unreachable = true
		}
	}
	if !unreachable {
		t.Fatalf("administrator not notified of unreachable peer: %+v", a.Notifications())
	}
	// The message is still queued for the peer's return, not lost and not
	// parked: the outage is charged to the peer, not to the message.
	pend := a.Pending()
	if len(pend) != 1 || pend[0].Held || pend[0].Attempts != 0 || pend[0].LastErr == "" {
		t.Fatalf("message should stay queued with its last error: %+v", pend)
	}
	// Notifier interface variant received it too.
	if len(app.notes) == 0 {
		t.Fatal("app Notify hook not invoked")
	}
}

func TestAuthorizationFailureHeldAndRetried(t *testing.T) {
	// §7.2: peer rejects repair while credentials are expired; after the
	// user refreshes the token, retry succeeds.
	tb := newTestbed()
	tokenValid := true
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	tb.add(&kvApp{name: "b", authz: func(ac AuthzRequest) bool {
		return tokenValid && ac.Carrier.Header["X-Token"] != "" || ac.Kind == warp.OutReplaceResponse
	}}, DefaultConfig())

	attack := tb.call("a", wire.NewRequest("POST", "/put").
		WithForm("key", "x", "val", "evil").
		WithHeader("X-Token", "tok-1"))
	tb.settle(10)

	tokenValid = false
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	tb.settle(10)

	// b rejected the delete: message held, admin notified, b unrepaired.
	var denied bool
	for _, n := range a.Notifications() {
		if n.Kind == "unauthorized" {
			denied = true
		}
	}
	if !denied {
		t.Fatalf("expected unauthorized notification, got %+v", a.Notifications())
	}
	if got := string(tb.call("b", get("x")).Body); got != "evil" {
		t.Fatalf("b should still be corrupt, got %q", got)
	}

	// User logs in again: fresh token, retry.
	tokenValid = true
	pend := a.Pending()
	if len(pend) != 1 {
		t.Fatalf("pending = %+v", pend)
	}
	if err := a.Retry(pend[0].DeliveryID, map[string]string{"X-Token": "tok-2"}); err != nil {
		t.Fatal(err)
	}
	tb.settle(10)
	if resp := tb.call("b", get("x")); resp.Status != 404 {
		t.Fatalf("b not repaired after retry: %d %q", resp.Status, resp.Body)
	}
}

func TestRepairAccessControlDeniesForeignRepair(t *testing.T) {
	// §4: a repair call with the wrong principal is refused — repair must
	// not become an attack vector.
	tb := newTestbed()
	tb.add(&kvApp{name: "b", authz: func(ac AuthzRequest) bool {
		return ac.Carrier.Header["X-Token"] == "secret"
	}}, DefaultConfig())

	victim := tb.call("b", put("x", "value"))
	del := wire.NewRequest("POST", "/aire/repair").WithHeader(
		wire.HdrRepair, "delete",
		wire.HdrRequestID, victim.Header[wire.HdrRequestID],
		"X-Token", "wrong",
	)
	resp := tb.call("b", del)
	if resp.Status != 403 {
		t.Fatalf("unauthorized repair returned %d", resp.Status)
	}
	if got := string(tb.call("b", get("x")).Body); got != "value" {
		t.Fatalf("unauthorized repair mutated state: %q", got)
	}
}

func TestQueueCollapsing(t *testing.T) {
	// §3.2: multiple repair messages about the same request collapse to the
	// most recent one.
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	tb.add(&kvApp{name: "b"}, DefaultConfig())

	bad := tb.call("a", put("x", "v1"))
	tb.settle(10)
	tb.bus.SetOffline("b", true)

	// Two successive replaces while b is down: only one message should
	// remain queued.
	for _, v := range []string{"v2", "v3"} {
		if _, err := a.ApplyLocal(warp.Action{
			Kind: warp.ReplaceReq, ReqID: bad.Header[wire.HdrRequestID], NewReq: put("x", v),
		}); err != nil {
			t.Fatal(err)
		}
		a.Flush()
	}
	if n := a.QueueLen(); n != 1 {
		t.Fatalf("queue length = %d, want 1 (collapsed)", n)
	}
	tb.bus.SetOffline("b", false)
	tb.settle(10)
	if got := string(tb.call("b", get("x")).Body); got != "v3" {
		t.Fatalf("b = %q, want v3 (most recent repair wins)", got)
	}
}

func TestGCMakesRepairPermanentlyUnavailable(t *testing.T) {
	// §9: repairs naming garbage-collected requests are refused with 410
	// and the requesting side notifies its administrator.
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	b := tb.add(&kvApp{name: "b"}, DefaultConfig())

	attack := tb.call("a", put("x", "evil"))
	tb.settle(10)

	// b garbage-collects everything it has seen so far.
	b.GC(b.Svc.Clock.Now() + 1)

	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	tb.settle(10)

	var gone bool
	for _, n := range a.Notifications() {
		if n.Kind == "gone" && n.Target == "b" {
			gone = true
		}
	}
	if !gone {
		t.Fatalf("expected permanently-unavailable notification, got %+v", a.Notifications())
	}
	if a.QueueLen() != 0 {
		t.Fatal("gone message should be dropped from the queue")
	}
}

// TestFrameAggregatesIncomingRepairs: §3.2 — incoming repair messages are
// aggregated and applied as one local repair. Two cancels claimed together
// reach the peer as one frame, which runs one warp pass.
func TestFrameAggregatesIncomingRepairs(t *testing.T) {
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	b := tb.add(&kvApp{name: "b"}, DefaultConfig())

	at1 := tb.call("a", put("x", "e1"))
	at2 := tb.call("a", put("y", "e2"))
	tb.settle(10)

	a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: at1.Header[wire.HdrRequestID]})
	a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: at2.Header[wire.HdrRequestID]})
	before := b.Stats().RepairsRun
	if d, _ := a.Flush(); d != 2 {
		t.Fatalf("flush delivered %d, want 2", d)
	}
	if got := b.Stats().RepairsRun - before; got != 1 {
		t.Fatalf("the frame ran %d local repairs at b, want 1", got)
	}
	for _, k := range []string{"x", "y"} {
		if resp := tb.call("b", get(k)); resp.Status != 404 {
			t.Fatalf("aggregated repair did not cancel %s: %d %s", k, resp.Status, resp.Body)
		}
	}
}

func TestExternalEffectCompensation(t *testing.T) {
	// §7.1: the daily email summary cannot be unsent; repair runs a
	// compensating action notifying the admin of the corrected contents.
	tb := newTestbed()
	app := &kvApp{name: "a"}
	a := tb.add(app, DefaultConfig())

	attack := tb.call("a", put("x", "evil"))
	tb.call("a", wire.NewRequest("POST", "/email"))
	if n := len(a.Svc.Outbox()); n != 1 {
		t.Fatalf("outbox = %d", n)
	}

	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	var comp bool
	for _, n := range a.Notifications() {
		if n.Kind == string(warp.NoticeCompensation) && strings.Contains(n.Detail, "daily summary") {
			comp = true
		}
	}
	if !comp {
		t.Fatalf("no compensation notification: %+v", a.Notifications())
	}
	// The effect itself is not re-performed.
	if n := len(a.Svc.Outbox()); n != 1 {
		t.Fatalf("repair re-performed external effect: outbox = %d", n)
	}
}

func TestConfidentialLeakReporting(t *testing.T) {
	// §9 extension: reads of confidential data that disappear under repair
	// are reported as likely leaks.
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a"}, DefaultConfig())

	tb.call("a", put("secret", "s3cr3t"))
	a.Svc.Store.MarkConfidential(kvKey("secret"))

	// Attacker grants themselves a pointer, then reads the secret.
	attack := tb.call("a", put("leak-path", "secret"))
	tb.call("a", get("secret")) // attacker's read — depends on nothing attacker wrote, so model the
	// read as flowing through the attack: reader reads leak-path then secret.
	probe := tb.call("a", wire.NewRequest("GET", "/sum")) // scans, reads secret value
	_ = probe

	// Cancel the attack; /sum re-executes and still reads secret — not a
	// leak. Make a better leak: delete the secret-reading request's cause.
	// Simplest direct check: cancel a request that itself read the secret.
	readReq := tb.call("a", get("secret"))
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: readReq.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	var leak bool
	for _, n := range a.Notifications() {
		if n.Kind == string(warp.NoticeLeak) {
			leak = true
		}
	}
	if !leak {
		t.Fatalf("expected leak notification, got %+v", a.Notifications())
	}
	_ = attack
}

func TestRepairIsRepairable(t *testing.T) {
	// §2.2: repairing an already-repaired request must work (repair updates
	// the log like normal operation does).
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a"}, DefaultConfig())

	bad := tb.call("a", put("x", "v1"))
	tb.call("a", get("x"))

	for i, v := range []string{"v2", "v3", "v4"} {
		if _, err := a.ApplyLocal(warp.Action{
			Kind: warp.ReplaceReq, ReqID: bad.Header[wire.HdrRequestID], NewReq: put("x", v),
		}); err != nil {
			t.Fatalf("repair #%d: %v", i, err)
		}
		if got := string(tb.call("a", get("x")).Body); got != v {
			t.Fatalf("after repair #%d x = %q, want %q", i, got, v)
		}
	}
	// Finally cancel it altogether.
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: bad.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	if resp := tb.call("a", get("x")); resp.Status != 404 {
		t.Fatalf("cancel after repeated replace failed: %d", resp.Status)
	}
}
