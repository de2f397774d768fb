package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"aire/internal/sched"
	"aire/internal/warp"
	"aire/internal/wire"
)

// This file is the horizontal-scale shard layer (ROADMAP item 1): one
// service partitioned by key into N shard instances, each a full Controller
// with its own versioned store, repair log, dedup inbox, pump partition
// set, and — when durability is on — its own wal.Writer and independent
// checkpoint/recovery. There is deliberately NO cross-shard log ordering: a
// sender's claim is per (peer, shard), so a cross-shard repair wave reaches
// each shard as that shard's own frame, applied and acknowledged in one
// atomic entry on that shard's log — exactly the machinery that already
// orders cross-*service* repair.
//
// Routing has two planes:
//
//   - Normal (exec) traffic is routed by a deterministic key→shard map
//     (ShardTopology.KeyOf + FNV hash), carried on the wire as the
//     Aire-Shard header when a sender resolves it ahead of time.
//
//   - Repair-plane carriers route *themselves*: every identifier a shard
//     mints (request, response, token, delivery IDs) is prefixed with the
//     shard-qualified service name ("svc#i"), so a carrier that names a
//     remote request ID, a create anchor, or a fetch token already names
//     its destination shard. Senders resolve the shard from the ID
//     (Controller.peerDest) and deliver directly to the shard's transport
//     name, keeping per-(peer, shard) FIFO order, version vectors, and
//     backoff; the router's repair path is only a fallback for externally
//     originated repair API calls.

// ShardTopology is the deterministic key→shard map for a set of services.
// The zero count for a service means unsharded (one controller under the
// base name). Topologies are immutable once controllers are constructed
// from them: every sender and every shard must agree on the map.
type ShardTopology struct {
	counts map[string]int
	// KeyFunc extracts the partition key from a request (nil means the
	// "key" form field — the convention the harness KV apps use). Requests
	// with an empty key deterministically land on shard 0.
	KeyFunc func(req wire.Request) string
}

// NewShardTopology returns an empty topology (every service unsharded).
func NewShardTopology() *ShardTopology {
	return &ShardTopology{counts: make(map[string]int)}
}

// SetShards declares svc to be partitioned into n shards (n <= 1 means
// unsharded). Call before constructing controllers.
func (t *ShardTopology) SetShards(svc string, n int) {
	if n < 1 {
		n = 1
	}
	t.counts[svc] = n
}

// Shards reports how many shards svc has (1 when undeclared or unsharded).
func (t *ShardTopology) Shards(svc string) int {
	if t == nil {
		return 1
	}
	if n := t.counts[svc]; n > 1 {
		return n
	}
	return 1
}

// ShardName returns the transport name of svc's i-th shard: "svc#i" when
// svc is sharded, svc itself when not. The '#' qualifier is what makes
// every shard-minted identifier ("svc#i-req-42") name its owning shard.
func (t *ShardTopology) ShardName(svc string, i int) string {
	if t.Shards(svc) <= 1 {
		return svc
	}
	return fmt.Sprintf("%s#%d", svc, i)
}

// ShardBaseName strips the shard qualifier from a transport name:
// "svc#3" -> "svc", "svc" -> "svc". Identity for unsharded names.
func ShardBaseName(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	return name
}

// KeyOf extracts the partition key from a request.
func (t *ShardTopology) KeyOf(req wire.Request) string {
	if t.KeyFunc != nil {
		return t.KeyFunc(req)
	}
	return req.Form["key"]
}

// ShardOf maps a partition key to a shard index for svc. The map is a
// plain FNV-32a hash mod the shard count — deterministic across processes
// and restarts, which is what lets every sender resolve it independently.
func (t *ShardTopology) ShardOf(svc, key string) int {
	n := t.Shards(svc)
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// Resolve returns the transport name of the shard serving key at svc.
func (t *ShardTopology) Resolve(svc, key string) string {
	return t.ShardName(svc, t.ShardOf(svc, key))
}

// shardFromID recovers the shard name embedded in an identifier minted by
// one of base's shards: "base#3-req-17" -> ("base#3", true). Returns false
// for IDs minted by an unsharded service (or anything else).
func shardFromID(base, id string) (string, bool) {
	p := base + "#"
	if !strings.HasPrefix(id, p) {
		return "", false
	}
	rest := id[len(p):]
	j := strings.IndexByte(rest, '-')
	if j <= 0 {
		return "", false
	}
	for _, ch := range rest[:j] {
		if ch < '0' || ch > '9' {
			return "", false
		}
	}
	return id[:len(p)+j], true
}

// peerDest resolves the transport destination of a queued repair message.
// Without a topology this is exactly the classic peerKey partition (the
// target service, or the notifier host for replace_response). With one,
// repair carriers bound for a sharded peer resolve to the owning shard:
// replace/delete from the peer-minted request ID they name, create from
// its anchor IDs (falling back to the key map for anchorless creates),
// replace_response from the notifier URL — which a shard minted from its
// own qualified name, so it needs no resolution. The result keys the
// per-peer FIFO partition, backoff state, and version vectors, so all
// three are naturally per (peer, shard).
func (c *Controller) peerDest(m warp.OutMsg) string {
	k := peerKey(m)
	if c.topo == nil || m.Kind == warp.OutReplaceResponse {
		return k
	}
	if c.topo.Shards(k) <= 1 {
		return k
	}
	switch m.Kind {
	case warp.OutReplace, warp.OutDelete:
		if s, ok := shardFromID(k, m.RemoteReqID); ok {
			return s
		}
	case warp.OutCreate:
		if s, ok := shardFromID(k, m.BeforeID); ok {
			return s
		}
		if s, ok := shardFromID(k, m.AfterID); ok {
			return s
		}
	}
	return c.topo.Resolve(k, c.topo.KeyOf(m.Req))
}

// ShardedController is the router fronting one sharded service: it owns
// the service's transport name and dispatches to the shard controllers,
// which are additionally registered under their own qualified names so
// repair-plane peers can address them directly. It implements the same
// transport.Handler contract a Controller does, plus ApplyLocal routed by
// the IDs each action names. Everything else — Flush, pumps, stats — is
// driven on the shard controllers themselves.
type ShardedController struct {
	// Base is the service's unqualified name (the router's transport name).
	Base string
	// Topo is the shared topology the shards were built from.
	Topo *ShardTopology

	shards []*Controller
	byName map[string]*Controller
	sd     sched.Scheduler
}

// NewShardedController wraps base's shard controllers (index order) in a
// router. Every shard must have been constructed with the same topology
// and the qualified name topo.ShardName(base, i).
func NewShardedController(base string, topo *ShardTopology, shards []*Controller) *ShardedController {
	if len(shards) != topo.Shards(base) {
		panic(fmt.Sprintf("core: %s has %d shard controllers, topology says %d", base, len(shards), topo.Shards(base)))
	}
	s := &ShardedController{
		Base:   base,
		Topo:   topo,
		shards: append([]*Controller(nil), shards...),
		byName: make(map[string]*Controller, len(shards)),
		sd:     shards[0].sd,
	}
	for i, c := range shards {
		want := topo.ShardName(base, i)
		if c.Svc.Name != want {
			panic(fmt.Sprintf("core: shard %d of %s is named %q, want %q", i, base, c.Svc.Name, want))
		}
		s.byName[c.Svc.Name] = c
	}
	return s
}

// SetShard replaces the i-th shard controller (crash-restart: the harness
// rebuilds a shard from disk and swaps it in). Not safe concurrently with
// routing; the simulator only calls it with the world quiesced.
func (s *ShardedController) SetShard(i int, c *Controller) {
	delete(s.byName, s.shards[i].Svc.Name)
	s.shards[i] = c
	s.byName[c.Svc.Name] = c
}

// HandleWire routes one request to its shard. For externally originated
// traffic (from == "": clients, admin tools, the harness workload) the
// routing decision is a named scheduler yield point ("shard-route") so
// seeded schedules cover the window between a request's arrival and its
// dispatch. Nested service-to-service calls skip the yield: they execute
// synchronously inside the calling shard's handler, which holds that
// shard's Svc.Mu — parking the task there would let another task block on
// the held mutex and wedge the cooperative scheduler. The router only
// exists for sharded services, so unsharded (N=1) runs see no new yield
// points and their seed digests stay byte-identical.
func (s *ShardedController) HandleWire(from string, req wire.Request) wire.Response {
	if from == "" {
		s.sd.YieldNamed("shard-route") // schedule point: about to pick a shard
	}
	if req.Path == "/aire/poll" {
		return s.handlePollFanout(from, req)
	}
	if req.Path == wire.FramePath && s.byName[req.Header[wire.HdrShard]] == nil {
		// A frame is one shard's batch, and a shard-aware sender names the
		// shard; the router cannot split a frame without dropping its
		// vector announcement, so it refuses loudly instead of guessing.
		return wire.NewResponse(400, "aire: frame for sharded service "+s.Base+" names no shard")
	}
	return s.route(req).HandleWire(from, req)
}

// route picks the shard a request belongs to, most-specific signal first:
// the Aire-Shard header a shard-aware sender stamped; any shard-minted
// identifier the request names (repair target, create anchors, fetch
// token); finally the deterministic key map. Requests with none of these
// (keyless exec traffic) land on shard 0.
func (s *ShardedController) route(req wire.Request) *Controller {
	if h := req.Header[wire.HdrShard]; h != "" {
		if c := s.byName[h]; c != nil {
			return c
		}
	}
	for _, id := range []string{
		req.Header[wire.HdrRequestID],
		req.Form["before_id"],
		req.Form["after_id"],
		req.Form["token"],
	} {
		if id == "" {
			continue
		}
		if name, ok := shardFromID(s.Base, id); ok {
			if c := s.byName[name]; c != nil {
				return c
			}
		}
	}
	return s.shards[s.Topo.ShardOf(s.Base, s.Topo.KeyOf(req))]
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

// routeAction picks the shard a local repair action belongs to, using the
// same signals the wire path uses: the request ID the action names, a
// create's anchors, else the key map over the new request.
func (s *ShardedController) routeAction(a warp.Action) *Controller {
	for _, id := range []string{a.ReqID, a.BeforeID, a.AfterID} {
		if id == "" {
			continue
		}
		if name, ok := shardFromID(s.Base, id); ok {
			if c := s.byName[name]; c != nil {
				return c
			}
		}
	}
	var req wire.Request
	switch a.Kind {
	case warp.CreateReq, warp.ReplaceReq:
		req = a.NewReq
	}
	return s.shards[s.Topo.ShardOf(s.Base, s.Topo.KeyOf(req))]
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
