package core

import (
	"fmt"
	"testing"

	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

func TestAdaptiveBatchLimit(t *testing.T) {
	cases := []struct {
		name          string
		pol           AdaptiveBatch
		backlog, prev int
		want          int
	}{
		{"first-contact-small-backlog", AdaptiveBatch{}, 1, 0, 1},
		{"first-contact-grows", AdaptiveBatch{}, 10, 0, 2},
		{"doubles-under-backlog", AdaptiveBatch{}, 10, 2, 4},
		{"doubles-again", AdaptiveBatch{}, 100, 16, 32},
		{"capped-at-default-max", AdaptiveBatch{}, 1000, 64, 64},
		{"capped-at-custom-max", AdaptiveBatch{Max: 8}, 100, 8, 8},
		{"grow-clamped-to-max", AdaptiveBatch{Max: 8}, 100, 6, 8},
		{"shrinks-to-backlog", AdaptiveBatch{}, 3, 16, 3},
		{"idle-shrinks-to-min", AdaptiveBatch{}, 0, 16, 1},
		{"min-floor", AdaptiveBatch{Min: 4}, 1, 0, 4},
		{"min-floor-on-shrink", AdaptiveBatch{Min: 4, Max: 32}, 2, 16, 4},
		{"max-below-min-clamps", AdaptiveBatch{Min: 8, Max: 2}, 100, 0, 8},
		{"backlog-equal-prev-holds", AdaptiveBatch{}, 8, 8, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.pol.Limit(tc.backlog, tc.prev); got != tc.want {
				t.Fatalf("%+v.Limit(%d, %d) = %d, want %d", tc.pol, tc.backlog, tc.prev, got, tc.want)
			}
		})
	}
}

// cascadeMsg builds a distinct repair-carrier message bound for peer.
func cascadeMsg(peer string, n int) warp.OutMsg {
	return warp.OutMsg{
		Kind: warp.OutReplace, Target: peer,
		RemoteReqID: fmt.Sprintf("%s-req-%d", peer, n),
		Req:         wire.NewRequest("POST", "/put").WithForm("key", "k", "val", "v"),
	}
}

// respMsg builds a response-class (replace_response) message bound for the
// named notifier host.
func respMsg(host string, n int) warp.OutMsg {
	return warp.OutMsg{
		Kind:        warp.OutReplaceResponse,
		NotifierURL: transport.NotifierURL(host),
		RespID:      fmt.Sprintf("%s-resp-%d", host, n),
		LocalReqID:  fmt.Sprintf("%s-lreq-%d", host, n),
		Resp:        wire.NewResponse(200, "fixed"),
	}
}

// claimPass runs the decision sequence a background pump pass runs —
// backlog snapshot, policy limits, claim — and returns the claimed batches.
func claimPass(c *Controller) []*claimedBatch {
	return c.claimBatches(c.batchLimits(c.peerBacklogs()), true)
}

// TestBatchPolicyGrowsAndShrinks drives claim passes by hand: under a deep
// backlog the per-peer claim limit doubles pass over pass up to the cap
// (carried in the retained peerState), and when the backlog drains the
// next pass claims exactly what is left.
func TestBatchPolicyGrowsAndShrinks(t *testing.T) {
	tb := newTestbed()
	cfg := DefaultConfig()
	cfg.BatchPolicy = AdaptiveBatch{Min: 1, Max: 8}
	c := tb.add(&kvApp{name: "a"}, cfg)

	var msgs []warp.OutMsg
	for i := 0; i < 20; i++ {
		msgs = append(msgs, cascadeMsg("b", i))
	}
	c.enqueue(msgs, traceCtx{})

	var sizes []int
	for pass := 0; pass < 4; pass++ {
		batches := claimPass(c)
		if len(batches) != 1 {
			t.Fatalf("pass %d claimed %d batches, want 1", pass, len(batches))
		}
		sizes = append(sizes, len(batches[0].ptrs))
		c.releaseBatches(batches) // hand the claim back; ps.limit persists
	}
	want := []int{2, 4, 8, 8}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("claim sizes = %v, want %v (growth toward the cap)", sizes, want)
		}
	}

	// Drain the backlog down to 3: the next pass claims exactly that.
	for _, p := range c.Pending()[3:] {
		if err := c.Drop(p.MsgID); err != nil {
			t.Fatal(err)
		}
	}
	batches := claimPass(c)
	if len(batches) != 1 || len(batches[0].ptrs) != 3 {
		t.Fatalf("post-drain claim = %d batches, %d msgs; want 1 batch of 3", len(batches), len(batches[0].ptrs))
	}
	c.releaseBatches(batches)
}

// TestBatchPolicyFloorForUnsnapshottedPeer: a peer whose first message
// arrived after the pass's backlog snapshot has no computed limit, so its
// claim takes the policy floor rather than an unbounded batch.
func TestBatchPolicyFloorForUnsnapshottedPeer(t *testing.T) {
	tb := newTestbed()
	cfg := DefaultConfig()
	cfg.BatchPolicy = AdaptiveBatch{Min: 2, Max: 8}
	c := tb.add(&kvApp{name: "a"}, cfg)

	limits := c.batchLimits(c.peerBacklogs()) // empty queue: no peer snapshotted
	var msgs []warp.OutMsg
	for i := 0; i < 5; i++ {
		msgs = append(msgs, cascadeMsg("b", i))
	}
	c.enqueue(msgs, traceCtx{})
	batches := c.claimBatches(limits, true)
	if len(batches) != 1 || len(batches[0].ptrs) != 2 {
		t.Fatalf("claim for an unsnapshotted peer = %d batches, want 1 batch of 2 (the floor)", len(batches))
	}
	c.releaseBatches(batches)
}

// TestAdmissionReservesResponseWorkers: with the default MaxShare (0.75)
// of the pump's 4 workers, one pass may put at most three cascade-class
// batches in flight while a response-class message waits — the fourth
// cascade peer is skipped, the response batch is claimed. Once nothing
// response-class is queued, the budget stops biting.
func TestAdmissionReservesResponseWorkers(t *testing.T) {
	tb := newTestbed()
	c := tb.add(&kvApp{name: "a"}, DefaultConfig())

	c.enqueue([]warp.OutMsg{cascadeMsg("p1", 0), cascadeMsg("p2", 0), cascadeMsg("p3", 0), cascadeMsg("p4", 0),
		respMsg("client", 0)}, traceCtx{})

	batches := claimPass(c)
	if len(batches) != 4 {
		t.Fatalf("claimed %d batches, want 4 (three cascades, the response)", len(batches))
	}
	for i, peer := range []string{"p1", "p2", "p3"} {
		if batches[i].peer != peer || !batches[i].cascade {
			t.Fatalf("batch %d = %q cascade=%v, want cascade to %s", i, batches[i].peer, batches[i].cascade, peer)
		}
	}
	if batches[3].peer != "client" || batches[3].cascade {
		t.Fatalf("fourth batch = %q cascade=%v, want response-class to client", batches[3].peer, batches[3].cascade)
	}
	c.qmu.Lock()
	inflight := c.cascadeInflight
	c.qmu.Unlock()
	if inflight != 3 {
		t.Fatalf("cascadeInflight = %d, want 3", inflight)
	}
	c.releaseBatches(batches)
	c.qmu.Lock()
	inflight = c.cascadeInflight
	c.qmu.Unlock()
	if inflight != 0 {
		t.Fatalf("cascadeInflight after release = %d, want 0", inflight)
	}

	// Drop the waiting response: with the user-visible plane idle, all four
	// cascade batches may claim.
	for _, p := range c.Pending() {
		if p.Msg.Kind == warp.OutReplaceResponse {
			if err := c.Drop(p.MsgID); err != nil {
				t.Fatal(err)
			}
		}
	}
	batches = claimPass(c)
	if len(batches) != 4 {
		t.Fatalf("with no responses waiting, claimed %d batches, want all four cascades", len(batches))
	}
	for _, b := range batches {
		if !b.cascade {
			t.Fatalf("batch to %q is not cascade-class", b.peer)
		}
	}
	c.releaseBatches(batches)
}

// TestAdmissionBurstTrickle: a peer this service has a live outbound call
// in flight to gets repair delivery in Burst-sized sips (default 1); the
// serial Flush path ignores the budget entirely.
func TestAdmissionBurstTrickle(t *testing.T) {
	tb := newTestbed()
	cfg := DefaultConfig()
	cfg.BatchPolicy = AdaptiveBatch{Min: 5, Max: 5} // fixed batches: only admission caps the claim
	c := tb.add(&kvApp{name: "a"}, cfg)

	var msgs []warp.OutMsg
	for i := 0; i < 5; i++ {
		msgs = append(msgs, cascadeMsg("p1", i))
	}
	c.enqueue(msgs, traceCtx{})

	c.beginLiveCall("p1")
	batches := claimPass(c)
	if len(batches) != 1 || len(batches[0].ptrs) != 1 {
		t.Fatalf("claim while p1 serves live traffic = %d msgs, want Burst=1", len(batches[0].ptrs))
	}
	c.releaseBatches(batches)

	// Flush's claim (pumpPass=false) is exempt: synchronous passes stay
	// deterministic and unbounded.
	batches = c.claimBatches(nil, false)
	if len(batches) != 1 || len(batches[0].ptrs) != 5 {
		t.Fatalf("flush-style claim = %d msgs, want all 5 (admission ignored)", len(batches[0].ptrs))
	}
	c.releaseBatches(batches)
	c.endLiveCall("p1")

	// Live call ended: the budget no longer applies.
	batches = claimPass(c)
	if len(batches) != 1 || len(batches[0].ptrs) != 5 {
		t.Fatalf("claim after live call ended = %d msgs, want all 5", len(batches[0].ptrs))
	}
	c.releaseBatches(batches)
}
