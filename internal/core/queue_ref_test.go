package core

import (
	"fmt"
	"sync"

	"aire/internal/warp"
)

// The outgoing queue's linear references: the lookups enqueue, Retry,
// Drop and WAL replay made before the queue was indexed, kept here to
// check the indexes against (TestQueueIndexMatchesLinearReference and
// TestQueueLookupsMatchLinearOnSimProfiles).

// refCollapseKey is the collapse key as a string, as the unindexed queue
// computed it for every comparison; "" never collapses.
func refCollapseKey(m warp.OutMsg) string {
	switch m.Kind {
	case warp.OutReplace, warp.OutDelete:
		return "req|" + m.Target + "|" + m.RemoteReqID
	case warp.OutReplaceResponse:
		id := m.LocalReqID
		if id == "" {
			id = m.RespID
		}
		return "resp|" + m.NotifierURL + "|" + id
	}
	return ""
}

// linearCollapseTarget is enqueue's linear collapse loop: the first live
// entry, in queue order, whose key equals m's. Caller holds qmu.
func linearCollapseTarget(c *Controller, m warp.OutMsg) *PendingMsg {
	key := refCollapseKey(m)
	if key == "" {
		return nil
	}
	for _, p := range c.queue {
		if p.queued && refCollapseKey(p.Msg) == key {
			return p
		}
	}
	return nil
}

// linearFind is findQueuedLocked's linear scan. Caller holds qmu.
func linearFind(c *Controller, deliveryID string) *PendingMsg {
	for _, p := range c.queue {
		if p.queued && p.DeliveryID == deliveryID {
			return p
		}
	}
	return nil
}

// queueLookupCheck counts the index lookups it observes, how many found an
// entry, and every one whose pick differs from the linear reference's.
type queueLookupCheck struct {
	mu                 sync.Mutex
	lookups, collapses int
	mismatches         []string
}

func (q *queueLookupCheck) observe(c *Controller, m *warp.OutMsg, deliveryID string, picked *PendingMsg) {
	var want *PendingMsg
	what := "find " + deliveryID
	if m != nil {
		want = linearCollapseTarget(c, *m)
		what = "collapse " + refCollapseKey(*m)
	} else {
		want = linearFind(c, deliveryID)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.lookups++
	if m != nil && picked != nil {
		q.collapses++
	}
	if picked != want {
		q.mismatches = append(q.mismatches, fmt.Sprintf("%s: %s: index picked %s, the linear scan %s", c.Svc.Name, what, pmID(picked), pmID(want)))
	}
}

func pmID(p *PendingMsg) string {
	if p == nil {
		return "none"
	}
	return p.DeliveryID
}
