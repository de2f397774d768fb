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
// entry, in queue order, whose key equals m's. Caller holds q.mu.
func linearCollapseTarget(q *outQueue, m warp.OutMsg) *PendingMsg {
	key := refCollapseKey(m)
	if key == "" {
		return nil
	}
	for _, p := range q.entries {
		if p.queued && refCollapseKey(p.Msg) == key {
			return p
		}
	}
	return nil
}

// linearFind is outQueue.find's linear scan. Caller holds q.mu.
func linearFind(q *outQueue, deliveryID string) *PendingMsg {
	for _, p := range q.entries {
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

func (lc *queueLookupCheck) observe(q *outQueue, m *warp.OutMsg, deliveryID string, picked *PendingMsg) {
	var want *PendingMsg
	what := "find " + deliveryID
	if m != nil {
		want = linearCollapseTarget(q, *m)
		what = "collapse " + refCollapseKey(*m)
	} else {
		want = linearFind(q, deliveryID)
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lookups++
	if m != nil && picked != nil {
		lc.collapses++
	}
	if picked != want {
		lc.mismatches = append(lc.mismatches, fmt.Sprintf("%s: index picked %s, the linear scan %s", what, pmID(picked), pmID(want)))
	}
}

func pmID(p *PendingMsg) string {
	if p == nil {
		return "none"
	}
	return p.DeliveryID
}
