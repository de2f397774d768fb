// Package idgen produces the identifiers Aire assigns to requests,
// responses, repair messages, and application objects.
//
// Determinism matters: local repair re-executes past requests (§3.2), and
// re-execution is only *stable* (§3.3) if it is deterministic. Identifiers
// created while handling a request are therefore derived from the request's
// own ID plus a per-request counter, so a replayed handler mints exactly the
// same IDs it minted originally.
package idgen

import (
	"fmt"
	"sync/atomic"
)

// Gen hands out service-scoped sequential identifiers. The zero value is not
// usable; create one with New. Gen is safe for concurrent use.
type Gen struct {
	prefix string
	next   atomic.Int64
}

// New returns a generator whose IDs carry the given prefix, conventionally
// the service name, so IDs are unique per service as §3.1 requires ("to
// ensure these identifiers uniquely name a request on a particular server,
// Aire assigns the identifier on the service handling the request").
func New(prefix string) *Gen {
	return &Gen{prefix: prefix}
}

// Request returns the next request identifier, e.g. "askbot-req-12".
func (g *Gen) Request() string {
	return fmt.Sprintf("%s-req-%d", g.prefix, g.next.Add(1))
}

// Response returns the next response identifier, e.g. "askbot-resp-13".
func (g *Gen) Response() string {
	return fmt.Sprintf("%s-resp-%d", g.prefix, g.next.Add(1))
}

// Token returns the next response-repair token (§3.1's two-step
// replace_response handshake).
func (g *Gen) Token() string {
	return fmt.Sprintf("%s-tok-%d", g.prefix, g.next.Add(1))
}

// Delivery returns the next repair-delivery identifier, e.g.
// "askbot-dlv-14". The trailing counter is the sender's monotonic delivery
// sequence; the peer-side dedup inbox (internal/deliver) classifies it
// against the sender's announced acked prefix, and relies on the persisted
// counter to keep IDs unique across crash-restart.
func (g *Gen) Delivery() string {
	return fmt.Sprintf("%s-dlv-%d", g.prefix, g.next.Add(1))
}

// Wave returns the next repair-wave identifier, e.g. "askbot-wave-15".
// A wave names one repair cascade for observability (internal/obs): the
// originating controller mints it when a repair starts with no incoming
// trace context, and every carrier the cascade emits inherits it. Waves
// draw from the same persisted counter as every other identifier, and are
// minted unconditionally (not gated on whether observability is enabled)
// so instrumented and uninstrumented runs consume identical ID sequences.
func (g *Gen) Wave() string {
	return fmt.Sprintf("%s-wave-%d", g.prefix, g.next.Add(1))
}

// Counter returns the service's one identity counter. Every WAL entry and
// checkpoint records it, covering every ID minted before, delivery IDs too.
func (g *Gen) Counter() int64 { return g.next.Load() }

// SetCounter forces the counter; recovery raises it to a recorded value so
// fresh IDs do not collide with logged or queued ones.
func (g *Gen) SetCounter(v int64) { g.next.Store(v) }

// Derived mints a deterministic identifier scoped to a request: object IDs
// created while handling request reqID use Derived(reqID, n) with a
// per-request counter n. Replaying the request reproduces the same IDs.
func Derived(reqID string, n int) string {
	return fmt.Sprintf("%s.%d", reqID, n)
}
