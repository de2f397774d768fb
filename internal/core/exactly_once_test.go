package core

import (
	"fmt"
	"sync"
	"testing"

	"aire/internal/deliver"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// carrier builds a repair-plane carrier request the way the pump's
// deliverRepairCall does, with explicit exactly-once delivery identity and
// the version vector a sender holding just this delivery would announce
// (acked prefix one short of it, frontier at it).
func carrier(kind warp.OutKind, targetID string, payload wire.Request, origin, deliveryID string, gen uint64) wire.Request {
	req := wire.NewRequest("POST", "/aire/repair")
	req.Header[wire.HdrRepair] = string(kind)
	if targetID != "" {
		req.Header[wire.HdrRequestID] = targetID
	}
	if kind != warp.OutDelete {
		req.Header[wire.HdrResponseID] = origin + "-resp-test"
		req.Header[wire.HdrNotifierURL] = transport.NotifierURL(origin)
		req.Body = payload.Encode()
	}
	req.Header[wire.HdrDeliveryID] = deliveryID
	req.Header[wire.HdrGeneration] = fmt.Sprintf("%d", gen)
	req.Header[wire.HdrOrigin] = origin
	if seq := deliver.Seq(deliveryID); seq > 0 {
		req.Header[wire.HdrAckedSeq] = fmt.Sprintf("%d", seq-1)
		req.Header[wire.HdrFrontierSeq] = fmt.Sprintf("%d", seq)
	}
	return req
}

// TestDuplicateCreateReturnsOriginalID is the duplicate-create hazard from
// the receiver's side: a re-delivered create (first response lost) must be
// re-acknowledged with the originally minted synthetic request ID instead
// of minting a second one.
func TestDuplicateCreateReturnsOriginalID(t *testing.T) {
	tb := newTestbed()
	b := tb.add(&kvApp{name: "b"}, DefaultConfig())

	create := carrier(warp.OutCreate, "",
		wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "v1"),
		"a", "a-dlv-1", 0)

	first, err := tb.bus.Call("a", "b", create)
	if err != nil || !first.OK() {
		t.Fatalf("create: %v %+v", err, first)
	}
	mintedID := first.Header[wire.HdrRequestID]
	if mintedID == "" {
		t.Fatal("create did not return a minted request ID")
	}
	logLen := b.Svc.Log.Len()

	second, err := tb.bus.Call("a", "b", create.Clone())
	if err != nil || !second.OK() {
		t.Fatalf("duplicate create: %v %+v", err, second)
	}
	if got := second.Header[wire.HdrRequestID]; got != mintedID {
		t.Fatalf("duplicate create minted a second request: got %q, want %q", got, mintedID)
	}
	if got := b.Svc.Log.Len(); got != logLen {
		t.Fatalf("duplicate create grew the log: %d -> %d records", logLen, got)
	}
	if got := b.Stats().DupDeliveries; got != 1 {
		t.Fatalf("DupDeliveries = %d, want 1", got)
	}

	// And the hazard is real: with the inbox disabled, the same
	// re-delivery mints a second synthetic request.
	tb2 := newTestbed()
	b2 := tb2.add(&kvApp{name: "b"}, DefaultConfig())
	b2.InjectFaults(Faults{DisableDedup: true})
	if _, err := tb2.bus.Call("a", "b", create.Clone()); err != nil {
		t.Fatal(err)
	}
	before := b2.Svc.Log.Len()
	if _, err := tb2.bus.Call("a", "b", create.Clone()); err != nil {
		t.Fatal(err)
	}
	if got := b2.Svc.Log.Len(); got != before+1 {
		t.Fatalf("with dedup disabled, duplicate create should double-mint (log %d -> %d)", before, got)
	}
}

// TestGenBumpedCreateStillDeduplicated: a Retry with refreshed credentials
// bumps the sender's generation, but a create whose first delivery was
// applied (response lost) must still be re-acked with the originally
// minted ID — once-only semantics beat generation monotonicity for mints.
func TestGenBumpedCreateStillDeduplicated(t *testing.T) {
	tb := newTestbed()
	b := tb.add(&kvApp{name: "b"}, DefaultConfig())

	first := carrier(warp.OutCreate, "",
		wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "v1"),
		"a", "a-dlv-1", 0)
	resp, err := tb.bus.Call("a", "b", first)
	if err != nil || !resp.OK() {
		t.Fatalf("create: %v %+v", err, resp)
	}
	minted := resp.Header[wire.HdrRequestID]
	logLen := b.Svc.Log.Len()

	retried := carrier(warp.OutCreate, "",
		wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "v1").WithHeader("Authorization", "fresh"),
		"a", "a-dlv-1", 1)
	resp, err = tb.bus.Call("a", "b", retried)
	if err != nil || !resp.OK() {
		t.Fatalf("gen-bumped create redelivery: %v %+v", err, resp)
	}
	if got := resp.Header[wire.HdrRequestID]; got != minted {
		t.Fatalf("gen-bumped create minted a second request: %q, want %q", got, minted)
	}
	if got := b.Svc.Log.Len(); got != logLen {
		t.Fatalf("log grew %d -> %d on gen-bumped create redelivery", logLen, got)
	}
}

// TestStaleGenerationDiscarded is the stale-redelivery hazard from the
// receiver's side: a delayed copy of superseded repair content (an older
// Aire-Generation for the same Aire-Delivery-Id) arriving after the newer
// content was applied must be acknowledged and discarded, not re-applied.
func TestStaleGenerationDiscarded(t *testing.T) {
	tb := newTestbed()
	b := tb.add(&kvApp{name: "b"}, DefaultConfig())

	put := tb.call("b", wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "evil"))
	targetID := put.Header[wire.HdrRequestID]

	newer := carrier(warp.OutReplace, targetID,
		wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "newer"),
		"a", "a-dlv-1", 1)
	if resp, err := tb.bus.Call("a", "b", newer); err != nil || !resp.OK() {
		t.Fatalf("replace gen 1: %v %+v", err, resp)
	}

	// The delayed copy of the superseded content arrives afterwards.
	older := carrier(warp.OutReplace, targetID,
		wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "older"),
		"a", "a-dlv-1", 0)
	resp, err := tb.bus.Call("a", "b", older)
	if err != nil || !resp.OK() {
		t.Fatalf("stale delivery must still be acknowledged: %v %+v", err, resp)
	}
	if got := string(tb.call("b", wire.NewRequest("GET", "/get").WithForm("key", "k")).Body); got != "newer" {
		t.Fatalf("peer regressed to %q after stale redelivery, want %q", got, "newer")
	}
	if got := b.Stats().StaleDeliveries; got != 1 {
		t.Fatalf("StaleDeliveries = %d, want 1", got)
	}

	// Hazard demonstration: with the inbox disabled, the delayed old
	// content regresses the peer.
	tb2 := newTestbed()
	tb2.add(&kvApp{name: "b"}, DefaultConfig()).InjectFaults(Faults{DisableDedup: true})
	put2 := tb2.call("b", wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "evil"))
	target2 := put2.Header[wire.HdrRequestID]
	n2 := carrier(warp.OutReplace, target2,
		wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "newer"), "a", "a-dlv-1", 1)
	o2 := carrier(warp.OutReplace, target2,
		wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "older"), "a", "a-dlv-1", 0)
	if resp, err := tb2.bus.Call("a", "b", n2); err != nil || !resp.OK() {
		t.Fatalf("replace gen 1: %v %+v", err, resp)
	}
	if resp, err := tb2.bus.Call("a", "b", o2); err != nil || !resp.OK() {
		t.Fatalf("stale replace: %v %+v", err, resp)
	}
	if got := string(tb2.call("b", wire.NewRequest("GET", "/get").WithForm("key", "k")).Body); got != "older" {
		t.Fatalf("with dedup disabled the stale copy should regress the peer, got %q", got)
	}
}

// TestFailedApplyRollsBackReservation: a gated delivery whose apply fails
// (unknown target → 404) must not poison the inbox — a later delivery of
// the same identity, once the target exists, applies normally.
func TestFailedApplyRollsBackReservation(t *testing.T) {
	tb := newTestbed()
	tb.add(&kvApp{name: "b"}, DefaultConfig())

	bad := carrier(warp.OutReplace, "b-req-999",
		wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "x"), "a", "a-dlv-1", 0)
	if resp, _ := tb.bus.Call("a", "b", bad); resp.Status != 404 {
		t.Fatalf("replace of unknown request = %d, want 404", resp.Status)
	}

	put := tb.call("b", wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "evil"))
	good := carrier(warp.OutReplace, put.Header[wire.HdrRequestID],
		wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "x"), "a", "a-dlv-1", 0)
	if resp, err := tb.bus.Call("a", "b", good); err != nil || !resp.OK() {
		t.Fatalf("retry after failed apply was not re-applied: %v %+v", err, resp)
	}
	if got := string(tb.call("b", wire.NewRequest("GET", "/get").WithForm("key", "k")).Body); got != "x" {
		t.Fatalf("state = %q, want %q", got, "x")
	}
}

// TestBatchIncomingGateCommitsAtApplyTime: with Config.BatchIncoming, a
// 202-accepted delivery is not yet applied — a redelivery before
// ProcessIncoming must be answered retryably (not acked for an apply that
// has not happened), and after the batch applies, a duplicate create is
// re-acked with the minted request ID.
func TestBatchIncomingGateCommitsAtApplyTime(t *testing.T) {
	tb := newTestbed()
	cfg := DefaultConfig()
	cfg.BatchIncoming = true
	b := tb.add(&kvApp{name: "b"}, cfg)

	create := carrier(warp.OutCreate, "",
		wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "v1"),
		"a", "a-dlv-1", 0)

	if resp, err := tb.bus.Call("a", "b", create); err != nil || resp.Status != 202 {
		t.Fatalf("batched create: %v %+v", err, resp)
	}
	// Redelivery while the batch is pending: retryable, not acknowledged.
	if resp, err := tb.bus.Call("a", "b", create.Clone()); err != nil || resp.Status != 503 {
		t.Fatalf("redelivery before apply = %v %+v, want 503 (in flight)", err, resp)
	}

	res, err := b.ProcessIncoming()
	if err != nil || len(res.CreatedIDs) != 1 {
		t.Fatalf("batch apply: %v %+v", err, res)
	}
	resp, err := tb.bus.Call("a", "b", create.Clone())
	if err != nil || !resp.OK() {
		t.Fatalf("redelivery after apply: %v %+v", err, resp)
	}
	if got := resp.Header[wire.HdrRequestID]; got != res.CreatedIDs[0] {
		t.Fatalf("duplicate create re-ack = %q, want the minted ID %q", got, res.CreatedIDs[0])
	}
	if got := b.Svc.Log.Len(); got != 1 {
		t.Fatalf("log has %d records, want 1 (no double mint)", got)
	}
}

// TestPumpStampsDeliveryHeaders: end-to-end, the pump's carriers arrive
// with delivery identity, and a full repair round-trip between two
// controllers is deduplicated on redelivery.
func TestPumpStampsDeliveryHeaders(t *testing.T) {
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	b := tb.add(&kvApp{name: "b"}, DefaultConfig())

	var mu sync.Mutex
	var seen []wire.Request
	tb.bus.Register("b", transport.HandlerFunc(func(from string, req wire.Request) wire.Response {
		if req.Path == "/aire/repair" {
			mu.Lock()
			seen = append(seen, req.Clone())
			mu.Unlock()
		}
		return b.HandleWire(from, req)
	}))

	tb.call("a", wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "evil"))
	attack := tb.call("a", wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "evil2"))
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	tb.settle(20)

	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no repair carrier reached b")
	}
	for _, req := range seen {
		if req.Header[wire.HdrDeliveryID] == "" || req.Header[wire.HdrOrigin] != "a" || req.Header[wire.HdrGeneration] == "" {
			t.Fatalf("carrier missing delivery identity: %+v", req.Header)
		}
	}
}
