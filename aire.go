// Package aire is a Go implementation of Aire, the asynchronous intrusion
// recovery system for interconnected web services described in:
//
//	Ramesh Chandra, Taesoo Kim, and Nickolai Zeldovich.
//	"Asynchronous intrusion recovery for interconnected web services."
//	SOSP 2013.
//
// Each web service that wishes to support recovery runs an Aire controller.
// During normal operation the controller logs the service's execution —
// requests, responses, database accesses, outgoing HTTP calls, and
// nondeterminism — and tracks dependencies across services by tagging every
// message with Aire identifiers. When an administrator cancels an attack
// request, Aire repairs the local state by rollback and selective
// re-execution, and asynchronously propagates repair to affected peers with
// a four-operation protocol (replace, delete, create, replace_response)
// that tolerates offline services and expired credentials.
//
// # Building a service
//
// Implement the App interface (Name, Register, Authorize), then create a
// controller and attach it to a transport:
//
//	bus := aire.NewBus()
//	ctrl := aire.NewService(myApp, bus)
//	bus.Register(myApp.Name(), ctrl)
//
// Handlers registered in Register interact with state only through the
// request context's dependency-tracked ORM (c.DB), issue outgoing calls
// with c.Call, read time with c.Now, and record external side effects with
// c.Effect — the interposition points Aire needs for replay.
//
// # Repairing
//
// To undo an attack request, its administrator calls:
//
//	result, err := ctrl.ApplyLocal(aire.Cancel(reqID))
//	ctrl.Flush() // or aire.Settle(...) across services
//
// Remote services receive repair through the /aire/* API automatically; the
// application's Authorize policy decides which repair messages to accept.
//
// See the examples directory for complete programs, and DESIGN.md for the
// mapping from the paper's sections to packages.
package aire

import (
	"context"

	"aire/internal/core"
	"aire/internal/orm"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/web"
	"aire/internal/wire"
)

// Re-exported message types (see internal/wire).
type (
	// Request is an API operation sent to a service.
	Request = wire.Request
	// Response is a service's answer to a Request.
	Response = wire.Response
)

// Aire dependency-tracking headers (§3.1 of the paper).
const (
	HdrRequestID   = wire.HdrRequestID
	HdrResponseID  = wire.HdrResponseID
	HdrNotifierURL = wire.HdrNotifierURL
	HdrRepair      = wire.HdrRepair
)

// NewRequest returns a Request with initialized maps.
func NewRequest(method, path string) Request { return wire.NewRequest(method, path) }

// NewResponse returns a Response with the given status and body.
func NewResponse(status int, body string) Response { return wire.NewResponse(status, body) }

// Application-side types.
type (
	// App is the contract between Aire and a web service: identity, route
	// and model registration, and the repair access-control policy of §4.
	App = core.App
	// AuthzRequest carries the context for one Authorize decision.
	AuthzRequest = core.AuthzRequest
	// Notification reports repair problems (unreachable peers, rejected
	// credentials, compensations, leaks) to the application.
	Notification = core.Notification
	// Ctx is the per-request handler context with the tracked ORM, the
	// intercepted outgoing-call API, and recorded nondeterminism.
	Ctx = web.Ctx
	// Handler processes one request.
	Handler = web.Handler
	// Service is the per-service runtime state (router, versioned store,
	// repair log, logical clock).
	Service = web.Service
	// Obj is one model object (ID plus string fields).
	Obj = orm.Obj
	// Controller is the Aire runtime for one service.
	Controller = core.Controller
	// Config tunes a controller.
	Config = core.Config
	// Result summarizes one local repair.
	Result = warp.Result
	// Action is one local repair instruction.
	Action = warp.Action
	// PendingMsg is a queued outgoing repair message.
	PendingMsg = core.PendingMsg
	// PeerVectorDump is one peer's sender-side anti-entropy vector state
	// (Controller.VectorDump).
	PeerVectorDump = core.PeerVectorDump
	// ShardTopology is the deterministic key→shard map shared by every
	// sender and shard of a horizontally partitioned service
	// (Config.Topology).
	ShardTopology = core.ShardTopology
	// ShardedController is the router fronting one service: N ≥ 1 full
	// per-shard controllers (own store, log, inbox, pump, WAL) behind the
	// service's transport name.
	ShardedController = core.ShardedController
	// Bus is the in-memory service fabric used to connect services.
	Bus = transport.Bus
)

// Fields builds an ORM field map from key/value pairs.
func Fields(kv ...string) map[string]string { return orm.Fields(kv...) }

// NewBus returns an empty in-memory service fabric with offline-fault
// injection (see also transport's net/http adapter for real sockets).
func NewBus() *Bus { return transport.NewBus() }

// DefaultConfig returns the controller configuration used in the paper
// reproduction experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewService builds the Aire runtime for app, delivering outgoing calls and
// repair messages over net. The caller must still register the returned
// controller on the transport under app.Name().
func NewService(app App, net core.Caller) *Controller {
	return core.NewController(app, net, DefaultConfig())
}

// NewServiceWithConfig is NewService with an explicit configuration.
func NewServiceWithConfig(app App, net core.Caller, cfg Config) *Controller {
	return core.NewController(app, net, cfg)
}

// NewShardTopology returns an empty shard topology (every service one
// shard). Declare shard counts with SetShards before constructing
// controllers, and hand the same topology to every controller's
// Config.Topology.
func NewShardTopology() *ShardTopology { return core.NewShardTopology() }

// NewShardedService wraps base's shard controllers (index order) in the
// router that owns the service's transport name. Each shard must have
// been built with the shared topology and named topo.ShardName(base, i).
// With more than one shard, register the shards under their own names
// too, so repair-plane peers can address them directly (one shard shares
// the base name, which the router owns).
func NewShardedService(base string, topo *ShardTopology, shards []*Controller) *ShardedController {
	return core.NewShardedController(base, topo, shards)
}

// Cancel builds the repair action that undoes a past request and all its
// effects (Table 1 "delete").
func Cancel(reqID string) Action {
	return Action{Kind: warp.CancelReq, ReqID: reqID}
}

// Replace builds the repair action that re-executes a past request with
// corrected content (Table 1 "replace").
func Replace(reqID string, newReq Request) Action {
	return Action{Kind: warp.ReplaceReq, ReqID: reqID, NewReq: newReq}
}

// CreateInPast builds the repair action that executes a new request between
// two past requests (Table 1 "create"). Either anchor may be empty.
func CreateInPast(req Request, beforeID, afterID string) Action {
	return Action{Kind: warp.CreateReq, NewReq: req, BeforeID: beforeID, AfterID: afterID}
}

// Settle drives the repair pump of all given controllers synchronously
// until the system quiesces or maxRounds passes elapse, returning the
// number of productive rounds. Each round runs one deterministic pass per
// controller (Controller.Flush — every deliverable message, in queue
// order, regardless of any peer's retry window) plus incoming-queue
// processing; it returns at the first round that makes no progress. Use it
// in tests and demos; a production deployment instead pumps queues
// continuously in the background with StartPumps (or Controller.StartPump),
// which delivers to distinct peers concurrently and retries unreachable
// peers with exponential backoff.
func Settle(maxRounds int, ctrls ...*Controller) int { return core.Settle(maxRounds, ctrls...) }

// StartPumps starts the background repair pump of every given controller
// and returns a stop function that shuts them all down again (waiting for
// in-flight deliveries to reconcile). If any pump fails to start — it is
// already running — the pumps started so far are stopped and the error
// returned.
func StartPumps(ctx context.Context, ctrls ...*Controller) (stop func(), err error) {
	return core.StartPumps(ctx, ctrls...)
}
