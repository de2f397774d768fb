package core

import (
	"fmt"
	"sync"
	"time"
)

// EventKind classifies controller events.
type EventKind string

// Controller event kinds.
const (
	// EvRequest: a normal request was handled.
	EvRequest EventKind = "request"
	// EvRepairApplied: a local repair ran.
	EvRepairApplied EventKind = "repair-applied"
	// EvRepairDenied: an incoming repair was rejected by Authorize.
	EvRepairDenied EventKind = "repair-denied"
	// EvMsgQueued: a repair message entered the outgoing queue.
	EvMsgQueued EventKind = "msg-queued"
	// EvMsgDelivered: a repair message reached its peer.
	EvMsgDelivered EventKind = "msg-delivered"
	// EvMsgHeld: a repair message was parked (unauthorized, or rejected
	// [MaxAttempts] times).
	EvMsgHeld EventKind = "msg-held"
	// EvDupDelivery: an incoming repair delivery was re-acknowledged
	// without re-applying (the exactly-once dedup inbox recognized it).
	EvDupDelivery EventKind = "dup-delivery"
	// EvStaleDelivery: an incoming delivery carried a superseded content
	// generation and was acknowledged but discarded.
	EvStaleDelivery EventKind = "stale-delivery"
)

// Event is one observable controller action, for dashboards and the demo
// narration.
type Event struct {
	At      time.Time
	Service string
	Kind    EventKind
	// Subject identifies the request or message involved.
	Subject string
	// Detail is a human-readable summary.
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("[%s] %-14s %-22s %s", e.Service, e.Kind, e.Subject, e.Detail)
}

// EventSink receives controller events. Implementations must be fast; they
// run inline (hold no controller locks, though).
type EventSink func(Event)

// eventHub fans events out to subscribers.
type eventHub struct {
	mu    sync.Mutex
	sinks []EventSink
}

func (h *eventHub) subscribe(s EventSink) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sinks = append(h.sinks, s)
}

func (h *eventHub) emit(e Event) {
	h.mu.Lock()
	sinks := h.sinks
	h.mu.Unlock()
	for _, s := range sinks {
		s(e)
	}
}

// Subscribe registers a sink for this controller's events.
func (c *Controller) Subscribe(s EventSink) {
	c.events.subscribe(s)
}

func (c *Controller) emit(kind EventKind, subject, format string, args ...any) {
	c.events.mu.Lock()
	n := len(c.events.sinks)
	c.events.mu.Unlock()
	if n == 0 {
		return
	}
	c.events.emit(Event{
		At:      time.Now(),
		Service: c.Svc.Name,
		Kind:    kind,
		Subject: subject,
		Detail:  fmt.Sprintf(format, args...),
	})
}

// EventRecorder is a convenience sink collecting events in memory.
type EventRecorder struct {
	mu     sync.Mutex
	events []Event
}

// Sink returns the EventSink to pass to Subscribe.
func (r *EventRecorder) Sink() EventSink {
	return func(e Event) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.events = append(r.events, e)
	}
}

// Events returns a copy of the recorded events.
func (r *EventRecorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Count returns how many events of the given kind were recorded ("" counts
// all).
func (r *EventRecorder) Count(kind EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if kind == "" {
		return len(r.events)
	}
	n := 0
	for _, e := range r.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
