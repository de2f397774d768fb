package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aire/internal/deliver"
	"aire/internal/transport"
	"aire/internal/warp"
)

// queueTestMsg builds a repair message of one of the queue's key shapes:
// a delete or replace of one of a few remote requests on two peers, a
// replace_response for one of a few local records, or a create (which
// never collapses).
func queueTestMsg(rng *rand.Rand) warp.OutMsg {
	target := []string{"b", "c"}[rng.Intn(2)]
	switch rng.Intn(4) {
	case 0:
		return warp.OutMsg{Kind: warp.OutDelete, Target: target, RemoteReqID: fmt.Sprintf("%s-req-%d", target, rng.Intn(3))}
	case 1:
		return warp.OutMsg{Kind: warp.OutReplace, Target: target, RemoteReqID: fmt.Sprintf("%s-req-%d", target, rng.Intn(3)),
			Req: put("k", fmt.Sprint(rng.Intn(100)))}
	case 2:
		return warp.OutMsg{Kind: warp.OutReplaceResponse, NotifierURL: transport.NotifierURL(target),
			LocalReqID: fmt.Sprintf("a-req-%d", rng.Intn(3)), RespID: fmt.Sprintf("resp-%d", rng.Intn(100))}
	}
	return warp.OutMsg{Kind: warp.OutCreate, Target: target, Req: put("k", "v")}
}

// TestQueueIndexMatchesLinearReference drives a controller's outgoing
// queue through seeded sequences of enqueues (collapsing onto a few keys),
// removals, and restored entries — new ones that share a live entry's key,
// as restored state may, and upserts that change an entry's key — and
// after every step checks VerifyQueue and that every collapse lookup and
// every find by delivery ID picks what the linear reference picks: with
// two live entries on one key, the oldest.
func TestQueueIndexMatchesLinearReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewController(&kvApp{name: "a"}, newTestbed().bus, DefaultConfig())
		var ids []string
		dupKeys := 0
		for step := 0; step < 300; step++ {
			c.q.mu.Lock()
			switch op := rng.Intn(10); {
			case op < 4:
				c.q.mu.Unlock()
				c.enqueue([]warp.OutMsg{queueTestMsg(rng), queueTestMsg(rng)}, traceCtx{})
				c.q.mu.Lock()
			case op < 6 && c.q.live > 0:
				if p := c.q.find(ids[rng.Intn(len(ids))]); p != nil {
					c.dequeueLocked(p)
				}
			case op < 8:
				// A restored entry the queue does not hold yet: its key may
				// already be live, which only restored state can produce.
				m := PendingMsg{DeliveryID: c.Svc.IDs.Delivery(), Msg: queueTestMsg(rng)}
				if linearCollapseTarget(c.q, m.Msg) != nil {
					dupKeys++
				}
				c.q.upsert(m)
			case len(ids) > 0:
				// A restored state for a queued entry, whose content (and
				// so key) may differ from the entry's.
				if p := linearFind(c.q, ids[rng.Intn(len(ids))]); p != nil {
					c.q.upsert(PendingMsg{DeliveryID: p.DeliveryID, Msg: queueTestMsg(rng), Gen: p.Gen + 1})
				}
			}
			ids = ids[:0]
			for _, p := range c.q.entries {
				ids = append(ids, p.DeliveryID)
			}
			for i := 0; i < 20; i++ {
				m := queueTestMsg(rng)
				if got, want := c.q.collapseTarget(&m), linearCollapseTarget(c.q, m); got != want {
					t.Fatalf("seed %d step %d: collapse of %s picked %s, the linear loop %s", seed, step, refCollapseKey(m), pmID(got), pmID(want))
				}
			}
			for _, id := range ids {
				if got, want := c.q.find(id), linearFind(c.q, id); got != want {
					t.Fatalf("seed %d step %d: find %s picked %s, the scan %s", seed, step, id, pmID(got), pmID(want))
				}
			}
			c.q.mu.Unlock()
			if err := c.VerifyQueue(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if dupKeys == 0 {
			t.Fatalf("seed %d: no restored entry shared a live key", seed)
		}
	}
}

// buildVerifyQueue returns a controller whose queue holds live entries on
// two peers, two of them restored onto one collapse key, and one dead
// entry not yet compacted away.
func buildVerifyQueue(t *testing.T) *Controller {
	t.Helper()
	c := NewController(&kvApp{name: "a"}, newTestbed().bus, DefaultConfig())
	del := func(target, id string) warp.OutMsg {
		return warp.OutMsg{Kind: warp.OutDelete, Target: target, RemoteReqID: id}
	}
	c.enqueue([]warp.OutMsg{del("b", "b-req-1"), del("b", "b-req-2"), del("c", "c-req-1"),
		{Kind: warp.OutCreate, Target: "c", Req: put("k", "v")}}, traceCtx{})
	c.q.mu.Lock()
	c.q.upsert(PendingMsg{DeliveryID: c.Svc.IDs.Delivery(), Msg: del("b", "b-req-1")})
	c.dequeueLocked(c.q.entries[1])
	c.q.mu.Unlock()
	if q := c.q; len(q.entries) != 5 || q.live != 4 || len(q.byKey[collapseKey(&q.entries[0].Msg)]) != 2 {
		t.Fatalf("fixture: %d entries, %d live", len(q.entries), q.live)
	}
	return c
}

func TestVerifyQueueHealthy(t *testing.T) {
	if err := buildVerifyQueue(t).VerifyQueue(); err != nil {
		t.Fatal(err)
	}
	if err := NewController(&kvApp{name: "a"}, newTestbed().bus, DefaultConfig()).VerifyQueue(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyQueueDetectsCorruption: each way the queue's indexes can drift
// from the queue they index is reported, naming what drifted.
func TestVerifyQueueDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(q *outQueue)
		want    string
	}{
		{"dropped delivery-ID entry", func(q *outQueue) { delete(q.byID, q.entries[0].DeliveryID) }, "missing from the delivery-ID index"},
		{"dead entry still indexed", func(q *outQueue) { q.byID[q.entries[1].DeliveryID] = q.entries[1] }, "delivery-ID index holds"},
		{"stale delivery-ID entry", func(q *outQueue) { q.byID["a-dlv-99"] = q.entries[0] }, "delivery-ID index holds"},
		{"dropped collapse-key entry", func(q *outQueue) {
			k := q.entries[0].key
			q.byKey[k] = q.byKey[k][1:]
		}, "missing from the collapse-key index"},
		{"collapse key lists a newer entry first", func(q *outQueue) {
			l := q.byKey[q.entries[0].key]
			l[0], l[1] = l[1], l[0]
		}, "before an older one"},
		{"collapse key indexes a dead entry", func(q *outQueue) {
			k := q.entries[1].key
			q.byKey[k] = append(q.byKey[k], q.entries[1])
		}, "indexes entry"},
		{"recorded key drifted", func(q *outQueue) { q.entries[0].key.id = "b-req-9" }, "records collapse key"},
		{"recorded destination drifted", func(q *outQueue) { q.entries[2].peer = "d" }, "records destination"},
		{"qlive drift", func(q *outQueue) { q.live++ }, "live count"},
		{"vector lost a delivery", func(q *outQueue) {
			delete(q.dests["b"].out, deliver.Seq(q.entries[0].DeliveryID))
		}, "vector for b"},
		{"vector holds a resolved delivery", func(q *outQueue) {
			q.dests["b"].out[deliver.Seq(q.entries[1].DeliveryID)] = true
		}, "vector for b"},
		{"positions out of order", func(q *outQueue) { q.entries[0], q.entries[2] = q.entries[2], q.entries[0] }, "out of order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := buildVerifyQueue(t)
			tc.corrupt(c.q)
			err := c.VerifyQueue()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
