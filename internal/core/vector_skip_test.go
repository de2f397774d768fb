package core

import (
	"fmt"
	"testing"

	"aire/internal/deliver"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// TestVectorInboxAcceptsSkippedSequences: the delivery sequences a sender
// addresses to one peer skip — every identifier the sender mints (request,
// response, wave, delivery IDs to other peers) comes from the same counter,
// and an ID lease would jump the counter by a whole lease. The peer's
// vector inbox must read a skip as nothing lost: a sends deliveries to b
// with request IDs minted in between, and moves its counter up by 10⁶
// between two repairs of each round, so each frame carries two sequences
// more than 10⁶ apart. Every delivery applies exactly once, b answers no
// gap NACK, nothing is classified Duplicate, Stale or Forgotten, and once
// a last frame's acked prefix covers every delivery b's inbox holds no
// entry.
func TestVectorInboxAcceptsSkippedSequences(t *testing.T) {
	const rounds, lease = 4, 1_000_000
	tb := newTestbed()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, DefaultConfig())
	b := tb.add(&kvApp{name: "b"}, DefaultConfig())
	nacks := 0
	tb.bus.Register("b", transport.HandlerFunc(func(from string, req wire.Request) wire.Response {
		resp := b.HandleWire(from, req)
		if resp.Header[wire.HdrNackSeq] != "" {
			nacks++
		}
		return resp
	}))
	cancel := func(reqID string) {
		t.Helper()
		if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: reqID}); err != nil {
			t.Fatal(err)
		}
	}

	var doomed []string
	for r := 0; r < rounds; r++ {
		var attacks []string
		for i := 0; i < 3; i++ {
			key := fmt.Sprintf("k%d.%d", r, i)
			doomed = append(doomed, key)
			attacks = append(attacks, tb.call("a", put(key, "evil")).Header[wire.HdrRequestID])
		}
		doomed = doomed[:len(doomed)-1] // the third put stays
		cancel(attacks[0])
		a.Svc.IDs.SetCounter(a.Svc.IDs.Counter() + lease)
		tb.call("a", put(fmt.Sprintf("between%d", r), "v")) // one more request ID in between
		cancel(attacks[1])
		pend := a.Pending()
		if len(pend) != 2 || deliver.Seq(pend[1].DeliveryID)-deliver.Seq(pend[0].DeliveryID) <= lease {
			t.Fatalf("round %d queued %+v, want two deliveries more than %d apart", r, pend, lease)
		}
		if delivered, left := a.Flush(); delivered != 2 || left != 0 {
			t.Fatalf("round %d: Flush delivered %d and left %d, want 2 and 0", r, delivered, left)
		}
	}

	// An entry lives until a later frame's acked prefix covers it, so the
	// last round's entries wait for one more frame. A replace naming a
	// request b never logged is refused (404) before it leaves an entry;
	// its frame announces the prefix that covers every delivery above.
	a.commit("repair", func() { a.enqueue([]warp.OutMsg{cascadeMsg("b", 1_000_000_000)}, traceCtx{}) })
	a.Flush()
	if err := a.Drop(a.Pending()[0].DeliveryID); err != nil {
		t.Fatal(err)
	}

	for _, key := range doomed {
		if resp := tb.call("b", get(key)); resp.Status != 404 {
			t.Errorf("b still holds %s after its cancel: %d %q", key, resp.Status, resp.Body)
		}
	}
	st := b.Stats()
	if st.InboxCommits != 2*rounds || a.Stats().MsgsDelivered != 2*rounds {
		t.Errorf("b committed %d deliveries and a delivered %d, want %d each", st.InboxCommits, a.Stats().MsgsDelivered, 2*rounds)
	}
	if st.DupDeliveries != 0 || st.StaleDeliveries != 0 || b.met.inboxGone.Value() != 0 {
		t.Errorf("b classified %d duplicate, %d stale, %d forgotten; want none", st.DupDeliveries, st.StaleDeliveries, b.met.inboxGone.Value())
	}
	if nacks != 0 || b.met.vvGapNacks.Value() != 0 {
		t.Errorf("b answered %d gap NACKs (%d detected), want none", nacks, b.met.vvGapNacks.Value())
	}
	if n := b.dedup.Len(); n != 0 {
		t.Errorf("b's inbox holds %d entries, want 0", n)
	}
}
