package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"aire/internal/deliver"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// frameCarriers lists the repair-plane carriers a call carries: a frame's
// carriers, a lone carrier itself, nothing for other traffic.
func frameCarriers(req wire.Request) []wire.Request {
	switch req.Path {
	case wire.FramePath:
		cs, _ := wire.DecodeFrame(req.Body)
		return cs
	case "/aire/repair", "/aire/notify":
		return []wire.Request{req.Clone()}
	}
	return nil
}

// frameOf frames carriers the way a sender holding exactly them would: the
// announcement moves from the carriers to the frame, acked one short of the
// lowest sequence carried and the frontier at the highest.
func frameOf(origin string, carriers ...wire.Request) wire.Request {
	var lo, hi uint64
	cs := make([]wire.Request, len(carriers))
	for i, c := range carriers {
		c = c.Clone()
		delete(c.Header, wire.HdrAckedSeq)
		delete(c.Header, wire.HdrFrontierSeq)
		if s := deliver.Seq(c.Header[wire.HdrDeliveryID]); s > 0 {
			if lo == 0 || s < lo {
				lo = s
			}
			hi = max(hi, s)
		}
		cs[i] = c
	}
	req := wire.NewRequest("POST", wire.FramePath)
	req.Body = wire.EncodeFrame(cs)
	req.Header[wire.HdrBodySum] = wire.BodySum(req.Body)
	req.Header[wire.HdrOrigin] = origin
	if hi > 0 {
		req.Header[wire.HdrAckedSeq] = fmt.Sprint(lo - 1)
		req.Header[wire.HdrFrontierSeq] = fmt.Sprint(hi)
	}
	return req
}

// frameReply delivers frame from "a" to the named service and returns its
// per-carrier answers.
func frameReply(t *testing.T, tb *testbed, to string, frame wire.Request, n int) []wire.Response {
	t.Helper()
	resp, err := tb.bus.Call("a", to, frame)
	if err != nil || resp.Status != 200 {
		t.Fatalf("frame to %s: %v %d %s", to, err, resp.Status, resp.Body)
	}
	resps, err := wire.DecodeFrameReply(resp.Body, n)
	if err != nil {
		t.Fatal(err)
	}
	return resps
}

// countingCaller counts the calls a sender makes.
type countingCaller struct {
	inner Caller
	n     atomic.Int64
}

func (cc *countingCaller) Call(from, to string, req wire.Request) (wire.Response, error) {
	cc.n.Add(1)
	return cc.inner.Call(from, to, req)
}

func seqMsg(target, seq string) warp.OutMsg {
	return warp.OutMsg{Kind: warp.OutCreate, Target: target, Req: wire.NewRequest("POST", "/put").WithForm("seq", seq)}
}

func attachTestWAL(t *testing.T, c *Controller) *wal.Writer {
	t.Helper()
	w, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	c.AttachWAL(w)
	return w
}

// TestFlushOneCallPerFrame: a Flush sends a peer's claim as one call while
// it fits the frame bound, and splits it at the bound, keeping FIFO order.
func TestFlushOneCallPerFrame(t *testing.T) {
	for _, n := range []int{5, wire.MaxFrameCarriers, wire.MaxFrameCarriers + 1} {
		tb := newTestbed()
		cc := &countingCaller{inner: tb.bus}
		hub := NewController(&kvApp{name: "hub"}, cc, DefaultConfig())
		tb.bus.Register("hub", hub)
		sink := &orderRecorder{}
		tb.bus.Register("sink", sink)
		var msgs []warp.OutMsg
		for i := 0; i < n; i++ {
			msgs = append(msgs, createMsg("sink", i))
		}
		hub.enqueue(msgs, traceCtx{})
		if d, left := hub.Flush(); d != n || left != 0 {
			t.Fatalf("n=%d: flush delivered %d, %d left", n, d, left)
		}
		want := int64((n + wire.MaxFrameCarriers - 1) / wire.MaxFrameCarriers)
		if got := cc.n.Load(); got != want {
			t.Fatalf("n=%d: flush made %d calls, want %d", n, got, want)
		}
		for i, seq := range sink.recorded() {
			if seq != fmt.Sprint(i) {
				t.Fatalf("n=%d: carrier %d arrived as seq %s", n, i, seq)
			}
		}
	}
}

// TestFrameMixedOutcomesReconcile: every carrier of one frame reconciles
// exactly as a lone delivery would — delivered, delivered with the peer's
// request ID learned, held as unauthorized, gone, charged one attempt — and
// the whole reconcile is one WAL entry.
func TestFrameMixedOutcomesReconcile(t *testing.T) {
	tb := newTestbed()
	cc := &countingCaller{inner: tb.bus}
	hub := NewController(&kvApp{name: "hub", mirror: "sink"}, cc, DefaultConfig())
	tb.bus.Register("hub", hub)
	tb.bus.Register("sink", wireHandler(func(req wire.Request) wire.Response {
		return wire.HandleFrame(req, func(c wire.Request) wire.Response {
			in, _ := wire.DecodeRequest(c.Body)
			switch in.Form["seq"] {
			case "dup":
				r := wire.NewResponse(200, "aire: duplicate delivery acknowledged")
				r.Header[wire.HdrRequestID] = "sink-req-77"
				return r
			case "deny":
				return wire.NewResponse(403, "no")
			case "gone":
				return wire.NewResponse(410, "collected")
			case "bad":
				return wire.NewResponse(400, "bad")
			}
			return wire.NewResponse(200, "ok")
		})
	}))
	live := tb.call("hub", put("k", "v")) // mirrored to sink: a call record to learn into
	rec, _ := hub.Svc.Log.Get(live.Header[wire.HdrRequestID])
	dup := seqMsg("sink", "dup")
	dup.CallRespID = rec.Calls[0].RespID
	hub.enqueue([]warp.OutMsg{seqMsg("sink", "ok"), dup, seqMsg("sink", "deny"), seqMsg("sink", "gone"), seqMsg("sink", "bad")}, traceCtx{})
	w := attachTestWAL(t, hub)
	calls, entries := cc.n.Load(), w.Seq()

	if d, left := hub.Flush(); d != 2 || left != 2 {
		t.Fatalf("flush delivered %d with %d left, want 2 and 2 (deny held, bad charged)", d, left)
	}
	if got := cc.n.Load() - calls; got != 1 {
		t.Fatalf("the frame took %d calls, want 1", got)
	}
	if got := w.Seq() - entries; got != 1 {
		t.Fatalf("the frame's reconcile wrote %d WAL entries, want 1", got)
	}
	rec, _ = hub.Svc.Log.Get(live.Header[wire.HdrRequestID])
	if got := rec.Calls[0].RemoteReqID; got != "sink-req-77" {
		t.Fatalf("learned remote request ID %q, want sink-req-77", got)
	}
	byseq := map[string]PendingMsg{}
	for _, p := range hub.Pending() {
		byseq[p.Msg.Req.Form["seq"]] = p
	}
	if p := byseq["deny"]; !p.Held || p.Attempts != 0 {
		t.Fatalf("403 carrier: %+v, want held and uncharged", p)
	}
	if p := byseq["bad"]; p.Held || p.Attempts != 1 {
		t.Fatalf("400 carrier: %+v, want live with one attempt charged", p)
	}
	kinds := map[string]int{}
	for _, n := range hub.Notifications() {
		kinds[n.Kind]++
	}
	if kinds["gone"] != 1 || kinds["unauthorized"] != 1 || kinds["unreachable"] != 0 {
		t.Fatalf("notifications %v, want one gone and one unauthorized", kinds)
	}
	hub.qmu.Lock()
	ps := hub.peers["sink"]
	hub.qmu.Unlock()
	if ps == nil || ps.failures != 0 {
		t.Fatalf("a peer that answered every carrier is backing off: %+v", ps)
	}
}

// TestFrameTransportErrorBacksOffOnce: an unreachable peer costs the frame
// one call and the peer one backoff step; no carrier is charged or parked.
func TestFrameTransportErrorBacksOffOnce(t *testing.T) {
	tb := newTestbed()
	hub := tb.add(&kvApp{name: "hub"}, DefaultConfig())
	tb.bus.Register("sink", &orderRecorder{})
	tb.bus.SetOffline("sink", true)
	hub.enqueue([]warp.OutMsg{createMsg("sink", 1), createMsg("sink", 2), createMsg("sink", 3)}, traceCtx{})
	if d, left := hub.Flush(); d != 0 || left != 3 {
		t.Fatalf("flush to an offline peer delivered %d, %d left", d, left)
	}
	if _, drops := tb.bus.Stats(); drops != 1 {
		t.Fatalf("offline peer saw %d attempts, want 1", drops)
	}
	hub.qmu.Lock()
	failures := hub.peers["sink"].failures
	hub.qmu.Unlock()
	if failures != 1 {
		t.Fatalf("peer failures = %d, want 1", failures)
	}
	for _, p := range hub.Pending() {
		if p.Held || p.Attempts != 0 || p.LastErr == "" {
			t.Fatalf("carrier after a transport error: %+v, want live, uncharged, with the error recorded", p)
		}
	}
}

// wireHandler adapts a function to transport.Handler for test peers.
type wireHandler func(wire.Request) wire.Response

func (h wireHandler) HandleWire(from string, req wire.Request) wire.Response { return h(req) }

// receiverWithPuts stands up "b" on a WAL with two stored keys.
func receiverWithPuts(t *testing.T) (*testbed, *Controller, *wal.Writer, []string) {
	t.Helper()
	tb := newTestbed()
	b := tb.add(&kvApp{name: "b"}, DefaultConfig())
	var ids []string
	for _, k := range []string{"x", "y"} {
		ids = append(ids, tb.call("b", put(k, "evil")).Header[wire.HdrRequestID])
	}
	return tb, b, attachTestWAL(t, b), ids
}

// TestFrameOneWarpRunOneEntry: n admitted carriers run one local repair,
// committed — mutations, inbox outcomes, vector advance — as one WAL entry.
func TestFrameOneWarpRunOneEntry(t *testing.T) {
	tb, b, w, ids := receiverWithPuts(t)
	runs, entries := b.Stats().RepairsRun, w.Seq()
	resps := frameReply(t, tb, "b", frameOf("a",
		carrier(warp.OutDelete, ids[0], wire.Request{}, "a", "a-dlv-1", 0),
		carrier(warp.OutDelete, ids[1], wire.Request{}, "a", "a-dlv-2", 0)), 2)
	for i, r := range resps {
		if !r.OK() || r.Header[wire.HdrRequestID] != ids[i] {
			t.Fatalf("carrier %d: %d %s (request %q)", i, r.Status, r.Body, r.Header[wire.HdrRequestID])
		}
	}
	if got := b.Stats().RepairsRun - runs; got != 1 {
		t.Fatalf("frame ran %d local repairs, want 1", got)
	}
	if got := w.Seq() - entries; got != 1 {
		t.Fatalf("frame apply wrote %d WAL entries, want 1", got)
	}
	for _, k := range []string{"x", "y"} {
		if resp := tb.call("b", get(k)); resp.Status != 404 {
			t.Fatalf("%s not cancelled: %d", k, resp.Status)
		}
	}
}

// TestFramePhase0RefusesOnlyBadCarrier: a carrier Phase 0 refuses (a create
// anchored on an unknown request) gets 400 alone, and its reservation is
// released; the rest of the frame applies.
func TestFramePhase0RefusesOnlyBadCarrier(t *testing.T) {
	tb, b, _, ids := receiverWithPuts(t)
	bad := carrier(warp.OutCreate, "", put("z", "v"), "a", "a-dlv-1", 0)
	bad.Form["before_id"] = "b-req-999"
	good := carrier(warp.OutDelete, ids[0], wire.Request{}, "a", "a-dlv-2", 0)
	resps := frameReply(t, tb, "b", frameOf("a", bad, good), 2)
	if resps[0].Status != 400 || !resps[1].OK() {
		t.Fatalf("answers %d %s / %d %s, want 400 then 200", resps[0].Status, resps[0].Body, resps[1].Status, resps[1].Body)
	}
	if resp := tb.call("b", get("x")); resp.Status != 404 {
		t.Fatalf("the good carrier did not apply: x %d", resp.Status)
	}
	if d, _ := b.dedup.Begin("a", "a-dlv-1", 0, true); d != deliver.Apply {
		t.Fatalf("refused carrier's reservation not released: %v", d)
	}
}

// TestFrameMalformedGenerationRefusedAlone: inside a frame, only the carrier
// whose generation does not parse is refused.
func TestFrameMalformedGenerationRefusedAlone(t *testing.T) {
	tb, _, _, ids := receiverWithPuts(t)
	bad := carrier(warp.OutDelete, ids[0], wire.Request{}, "a", "a-dlv-1", 0)
	bad.Header[wire.HdrGeneration] = "1e3"
	resps := frameReply(t, tb, "b", frameOf("a", bad, carrier(warp.OutDelete, ids[1], wire.Request{}, "a", "a-dlv-2", 0)), 2)
	if resps[0].Status != 400 || !resps[1].OK() {
		t.Fatalf("answers %d / %d, want 400 then 200", resps[0].Status, resps[1].Status)
	}
	if resp := tb.call("b", get("x")); resp.Status != 200 {
		t.Fatalf("the refused carrier applied: x %d", resp.Status)
	}
}

// TestFrameChecksumFailureWritesNothing: a corrupted frame is refused 503
// before any carrier is gated — no inbox entry, no WAL entry, no repair —
// and is not reported as a duplicate delivery.
func TestFrameChecksumFailureWritesNothing(t *testing.T) {
	tb, b, w, ids := receiverWithPuts(t)
	var rec EventRecorder
	b.Subscribe(rec.Sink())
	frame := frameOf("a", carrier(warp.OutDelete, ids[0], wire.Request{}, "a", "a-dlv-1", 0))
	frame.Body[len(frame.Body)/2] ^= 0x01
	entries, inbox, dups := w.Seq(), b.ExportAtomic().Inbox, b.Stats().DupDeliveries
	resp, err := tb.bus.Call("a", "b", frame)
	if err != nil || resp.Status != 503 {
		t.Fatalf("corrupted frame: %v %d %s, want 503", err, resp.Status, resp.Body)
	}
	if w.Seq() != entries || !reflect.DeepEqual(b.ExportAtomic().Inbox, inbox) || b.Stats().RepairsRun != 0 {
		t.Fatalf("a refused frame left traces: %d WAL entries, inbox %+v", w.Seq()-entries, b.ExportAtomic().Inbox)
	}
	if n := rec.Count(EvDupDelivery); n != 0 || b.Stats().DupDeliveries != dups {
		t.Fatalf("a corrupted frame was reported as a duplicate: %d dup-delivery events, DupDeliveries %d -> %d",
			n, dups, b.Stats().DupDeliveries)
	}
}

// TestFrameNeverNacksOwnSequence: the frame's announcement is observed
// against every sequence it carries, so a frame holding the sender's whole
// backlog is not NACKed, and a NACK names a sequence outside the frame.
func TestFrameNeverNacksOwnSequence(t *testing.T) {
	tb, _, _, ids := receiverWithPuts(t)
	cs := []wire.Request{
		carrier(warp.OutDelete, ids[0], wire.Request{}, "a", "a-dlv-5", 0),
		carrier(warp.OutDelete, ids[1], wire.Request{}, "a", "a-dlv-7", 0),
	}
	frame := frameOf("a", cs...) // announces acked=4, frontier=7
	resp, err := tb.bus.Call("a", "b", frame)
	if err != nil || resp.Header[wire.HdrNackSeq] != "" {
		t.Fatalf("frame carrying the whole backlog: %v, NACK %q", err, resp.Header[wire.HdrNackSeq])
	}
	frame = frameOf("a", cs...)
	frame.Header[wire.HdrFrontierSeq] = "9" // a newer delivery never arrived
	resp, err = tb.bus.Call("a", "b", frame)
	if err != nil {
		t.Fatal(err)
	}
	switch nack := resp.Header[wire.HdrNackSeq]; nack {
	case "":
		t.Fatal("frontier beyond the frame was not NACKed")
	case "5", "7":
		t.Fatalf("the frame NACKed its own sequence %s", nack)
	}
}
