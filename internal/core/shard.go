package core

import (
	"encoding/json"
	"fmt"

	"aire/internal/sched"
	"aire/internal/warp"
	"aire/internal/wire"
)

// This file is the shard layer: one service partitioned by key into N shard
// instances, each a full Controller with its own versioned store, repair
// log, dedup inbox, pump partition set, WAL and checkpoint/recovery. A
// service that is not partitioned is the N = 1 case of the same layer. There
// is deliberately NO cross-shard log ordering: a sender's claim is per
// (peer, shard), so a cross-shard repair wave reaches each shard as that
// shard's own frame, applied and acknowledged in one atomic entry on that
// shard's log — exactly the machinery that already orders cross-*service*
// repair.
//
// Routing is one rule, ShardTopology.Route, applied both by a sender
// resolving a queued carrier's destination (Controller.peerDest) and by the
// router fronting a service (ShardedController). Every identifier a shard
// mints (request, response, token, delivery IDs) carries the shard's name
// ("svc#i-req-42", wire.ShardIndex), so an ID the request names wins;
// anything else hashes its partition key. A keyless request hashes like
// any key.

// ShardTopology is the deterministic key→shard map for a set of services.
// A service it does not declare — and every service of a nil topology —
// has one shard, named by the service's own name. Topologies are immutable
// once controllers are constructed from them: every sender and every shard
// must agree on the map.
type ShardTopology struct {
	// names lists the shard names of each service with more than one.
	names map[string][]string
	// KeyFunc extracts the partition key from a request (nil means the
	// "key" form field — the convention the harness KV apps use).
	KeyFunc func(req wire.Request) string
}

// NewShardTopology returns an empty topology (every service one shard).
func NewShardTopology() *ShardTopology {
	return &ShardTopology{names: make(map[string][]string)}
}

// SetShards declares svc to be partitioned into n shards (n <= 1 means
// one). Call before constructing controllers.
func (t *ShardTopology) SetShards(svc string, n int) {
	if n <= 1 {
		delete(t.names, svc)
		return
	}
	names := make([]string, n)
	for i := range names {
		names[i] = wire.ShardName(svc, i)
	}
	t.names[svc] = names
}

// Shards reports how many shards svc has.
func (t *ShardTopology) Shards(svc string) int {
	if t == nil {
		return 1
	}
	return max(len(t.names[svc]), 1)
}

// ShardName returns the transport name of svc's i-th shard: "svc#i"
// (wire.ShardName) when svc has more than one shard, svc itself when it
// has one.
func (t *ShardTopology) ShardName(svc string, i int) string {
	if t != nil {
		if names := t.names[svc]; names != nil {
			return names[i]
		}
	}
	return svc
}

// ShardOf maps a partition key to a shard index for svc: a plain FNV-32a
// hash mod the shard count, deterministic across processes and restarts,
// which is what lets every sender resolve it independently. The empty key
// is no special case: it hashes to 2166136261, which is shard 1 of 2, 3
// or 4.
func (t *ShardTopology) ShardOf(svc, key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(t.Shards(svc)))
}

// Route is the one routing rule: the index of svc's shard that owns a
// request. The first of ids that one of svc's shards minted (or that is a
// shard name of svc) with an in-range index wins; otherwise the request's
// partition key hashes (ShardOf). Nil-safe, and it never allocates:
// senders run it for every queued carrier on every claim pass.
func (t *ShardTopology) Route(svc string, req wire.Request, ids ...string) int {
	n := t.Shards(svc)
	if n == 1 {
		return 0
	}
	for _, id := range ids {
		if i, ok := wire.ShardIndex(svc, id); ok && i < n {
			return i
		}
	}
	if t.KeyFunc != nil {
		return t.ShardOf(svc, t.KeyFunc(req))
	}
	return t.ShardOf(svc, req.Form["key"])
}

// peerDest resolves the transport destination of a queued repair message:
// the shard of the target peer that Route picks from the peer-minted IDs
// the carrier names — the request a replace or delete targets, a create's
// anchors — else from its key. A replace_response goes to its notifier,
// which a shard minted from its own qualified name. The result keys the
// per-peer FIFO partition, backoff state and version vectors, so all three
// are per (peer, shard); for a one-shard peer it is the peer's own name.
func (c *Controller) peerDest(m warp.OutMsg) string {
	k := peerKey(m)
	switch m.Kind {
	case warp.OutReplaceResponse:
		return k
	case warp.OutCreate:
		return c.topo.ShardName(k, c.topo.Route(k, m.Req, m.BeforeID, m.AfterID))
	}
	return c.topo.ShardName(k, c.topo.Route(k, m.Req, m.RemoteReqID))
}

// ShardedController is the router fronting one service: it owns the
// service's transport name and dispatches to the shard controllers. When
// there is more than one shard, each is also registered under its own
// qualified name so repair-plane peers can address it directly. It
// implements the same transport.Handler contract a Controller does, plus
// ApplyLocal routed by the IDs each action names. Everything else — Flush,
// pumps, stats — is driven on the shard controllers themselves.
type ShardedController struct {
	// Base is the service's unqualified name (the router's transport name).
	Base string
	// Topo is the shared topology the shards were built from.
	Topo *ShardTopology

	shards []*Controller
	sd     sched.Scheduler
}

// NewShardedController wraps base's shard controllers (index order) in a
// router. Every shard must have been constructed with the same topology
// and the name topo.ShardName(base, i).
func NewShardedController(base string, topo *ShardTopology, shards []*Controller) *ShardedController {
	if len(shards) != topo.Shards(base) {
		panic(fmt.Sprintf("core: %s has %d shard controllers, topology says %d", base, len(shards), topo.Shards(base)))
	}
	for i, c := range shards {
		if want := topo.ShardName(base, i); c.Svc.Name != want {
			panic(fmt.Sprintf("core: shard %d of %s is named %q, want %q", i, base, c.Svc.Name, want))
		}
	}
	return &ShardedController{
		Base:   base,
		Topo:   topo,
		shards: append([]*Controller(nil), shards...),
		sd:     shards[0].sd,
	}
}

// SetShard replaces the i-th shard controller (crash-restart: the harness
// rebuilds a shard from disk and swaps it in). Not safe concurrently with
// routing; the simulator only calls it with the world quiesced.
func (s *ShardedController) SetShard(i int, c *Controller) {
	s.shards[i] = c
}

// HandleWire routes one request to its shard. A one-shard service has no
// routing decision to make, so its shard answers every request untouched.
// With more than one, externally originated traffic (from == "": clients,
// admin tools, the harness workload) first passes a named scheduler yield
// point ("shard-route"), so seeded schedules cover the window between a
// request's arrival and its dispatch. Nested service-to-service calls skip
// the yield: they execute synchronously inside the calling shard's
// handler, which holds that shard's Svc.Mu — parking the task there would
// let another task block on the held mutex and wedge the cooperative
// scheduler.
func (s *ShardedController) HandleWire(from string, req wire.Request) wire.Response {
	if len(s.shards) == 1 {
		return s.shards[0].HandleWire(from, req)
	}
	if from == "" {
		s.sd.YieldNamed("shard-route") // schedule point: about to pick a shard
	}
	if req.Path == "/aire/poll" {
		return s.handlePollFanout(from, req)
	}
	if req.Path == wire.FramePath {
		// A frame is one shard's batch, and the sender names the shard; the
		// router cannot split a frame without dropping its vector
		// announcement, so it refuses loudly instead of guessing.
		if i, ok := wire.ShardIndex(s.Base, req.Header[wire.HdrShard]); !ok || i >= len(s.shards) {
			return wire.NewResponse(400, "aire: frame for sharded service "+s.Base+" names no shard")
		}
	}
	return s.route(req).HandleWire(from, req)
}

// route picks the shard a request belongs to by the one rule, over every
// shard-naming signal the request carries: the Aire-Shard name a sender
// stamped on a frame, the request ID a repair targets, a create's anchors,
// a fetch token.
func (s *ShardedController) route(req wire.Request) *Controller {
	return s.shards[s.Topo.Route(s.Base, req, req.Header[wire.HdrShard], req.Header[wire.HdrRequestID],
		req.Form["before_id"], req.Form["after_id"], req.Form["token"])]
}

// handlePollFanout merges every shard's parked response-repair tokens for
// a polling client: the client has no idea which shards repaired responses
// it saw, so /aire/poll is the one endpoint that genuinely fans out.
func (s *ShardedController) handlePollFanout(from string, req wire.Request) wire.Response {
	var tokens []string
	for _, c := range s.shards {
		resp := c.HandleWire(from, req)
		if !resp.OK() {
			return resp
		}
		var part []string
		if err := json.Unmarshal(resp.Body, &part); err != nil {
			return wire.NewResponse(500, "aire: bad poll payload from "+c.Svc.Name)
		}
		tokens = append(tokens, part...)
	}
	body, err := json.Marshal(tokens)
	if err != nil {
		return wire.NewResponse(500, "aire: "+err.Error())
	}
	return wire.Response{Status: 200, Header: map[string]string{}, Body: body}
}

// routeAction picks the shard a local repair action belongs to by the same
// rule: the request ID the action names, a create's anchors, else the key
// of the new request.
func (s *ShardedController) routeAction(a warp.Action) *Controller {
	var req wire.Request
	if a.Kind == warp.CreateReq || a.Kind == warp.ReplaceReq {
		req = a.NewReq
	}
	return s.shards[s.Topo.Route(s.Base, req, a.ReqID, a.BeforeID, a.AfterID)]
}

// ApplyLocal routes each action to its shard and applies them in order
// (an administrator's repair names shard-minted request IDs, so the
// routing is exact). Results are merged; CreatedIDs concatenate in action
// order.
func (s *ShardedController) ApplyLocal(actions ...warp.Action) (*warp.Result, error) {
	merged := &warp.Result{}
	for _, a := range actions {
		res, err := s.routeAction(a).ApplyLocal(a)
		if err != nil {
			return nil, err
		}
		merged.RepairedRequests += res.RepairedRequests
		merged.TotalRequests += res.TotalRequests
		merged.RepairedModelOps += res.RepairedModelOps
		merged.TotalModelOps += res.TotalModelOps
		merged.Duration += res.Duration
		merged.CreatedIDs = append(merged.CreatedIDs, res.CreatedIDs...)
		merged.Notices = append(merged.Notices, res.Notices...)
	}
	return merged, nil
}
