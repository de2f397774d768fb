package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/wire"
)

// topoS0 returns a topology that partitions "s0" n ways (nil for n = 0).
func topoS0(n int) *ShardTopology {
	if n == 0 {
		return nil
	}
	t := NewShardTopology()
	t.SetShards("s0", n)
	return t
}

// shardRouter builds base's shard controllers from topo and the router
// fronting them.
func shardRouter(topo *ShardTopology, base string) (*ShardedController, []*Controller) {
	bus := transport.NewBus()
	cfg := DefaultConfig()
	cfg.Topology = topo
	shards := make([]*Controller, topo.Shards(base))
	for i := range shards {
		shards[i] = NewController(&kvApp{name: topo.ShardName(base, i)}, bus, cfg)
	}
	return NewShardedController(base, topo, shards), shards
}

// TestShardRoute pins the one routing rule (ShardTopology.Route) and runs
// every row through each of its three callers — the sender's peerDest, the
// router's wire path and its local-repair path — so they provably agree.
// The key "alpha" hashes to shard 3 of 4; the empty key hashes to shard 1
// of 2, 3 and 4 (FNV-32a offset basis 2166136261).
func TestShardRoute(t *testing.T) {
	cases := []struct {
		name    string
		n       int // 0 means a nil topology
		id, key string
		want    int
	}{
		{"minted by shard 2", 4, "s0#2-req-1", "alpha", 2},
		{"minted by shard 0", 4, "s0#0-req-7", "alpha", 0},
		{"shard name itself", 4, "s0#1", "alpha", 1},
		{"out-of-range index falls back to the key", 4, "s0#9-req-1", "alpha", 3},
		{"non-digit index falls back to the key", 4, "s0#x-req-1", "alpha", 3},
		{"empty index falls back to the key", 4, "s0#-req-1", "alpha", 3},
		{"another base's ID falls back to the key", 4, "s1#2-req-1", "alpha", 3},
		{"a longer base's ID falls back to the key", 4, "s00#2-req-1", "alpha", 3},
		{"unsharded ID falls back to the key", 4, "s0-req-1", "alpha", 3},
		{"no ID routes by key", 4, "", "alpha", 3},
		{"keyless at N=2 hashes like any key", 2, "", "", 1},
		{"keyless at N=3 hashes like any key", 3, "", "", 1},
		{"keyless at N=4 hashes like any key", 4, "", "", 1},
		{"one shard", 1, "s0#2-req-1", "alpha", 0},
		{"nil topology", 0, "s0#2-req-1", "alpha", 0},
	}
	for _, tc := range cases {
		topo := topoS0(tc.n)
		r, shards := shardRouter(topo, "s0")
		req := wire.NewRequest("POST", "/put")
		if tc.key != "" {
			req = req.WithForm("key", tc.key)
		}
		if got := topo.Route("s0", req, tc.id); got != tc.want {
			t.Errorf("%s: Route = %d, want %d", tc.name, got, tc.want)
		}

		want := topo.ShardName("s0", tc.want)
		sender := &Controller{topo: topo}
		for _, m := range []warp.OutMsg{
			{Kind: warp.OutDelete, Target: "s0", RemoteReqID: tc.id, Req: req},
			{Kind: warp.OutReplace, Target: "s0", RemoteReqID: tc.id, Req: req},
			{Kind: warp.OutCreate, Target: "s0", BeforeID: tc.id, Req: req},
			{Kind: warp.OutCreate, Target: "s0", AfterID: tc.id, Req: req},
		} {
			if got := sender.peerDest(m); got != want {
				t.Errorf("%s: peerDest(%s) = %q, want %q", tc.name, m.Kind, got, want)
			}
		}

		for _, hdr := range []string{wire.HdrRequestID, wire.HdrShard} {
			wreq := req.Clone()
			if tc.id != "" {
				wreq.Header[hdr] = tc.id
			}
			if got := r.route(wreq); got != shards[tc.want] {
				t.Errorf("%s: router sends %s=%q to %s, want %s", tc.name, hdr, tc.id, got.Svc.Name, want)
			}
		}
		for _, field := range []string{"before_id", "after_id", "token"} {
			wreq := req
			if tc.id != "" {
				wreq = req.WithForm(field, tc.id)
			}
			if got := r.route(wreq); got != shards[tc.want] {
				t.Errorf("%s: router sends %s=%q to %s, want %s", tc.name, field, tc.id, got.Svc.Name, want)
			}
		}

		for _, a := range []warp.Action{
			{Kind: warp.ReplaceReq, ReqID: tc.id, NewReq: req},
			{Kind: warp.CreateReq, BeforeID: tc.id, NewReq: req},
			{Kind: warp.CreateReq, AfterID: tc.id, NewReq: req},
		} {
			if got := r.routeAction(a); got != shards[tc.want] {
				t.Errorf("%s: routeAction(%s) = %s, want %s", tc.name, a.Kind, got.Svc.Name, want)
			}
		}
	}

	// The Aire-Shard name a sender stamped outranks an ID naming a sibling.
	r, shards := shardRouter(topoS0(4), "s0")
	req := wire.NewRequest("POST", "/aire/repair")
	req.Header[wire.HdrShard] = "s0#1"
	req.Header[wire.HdrRequestID] = "s0#2-req-1"
	if got := r.route(req); got != shards[1] {
		t.Errorf("Aire-Shard s0#1 with a shard-2 request ID routed to %s, want s0#1", got.Svc.Name)
	}
}

// TestPeerDestZeroAlloc guards the claim loop: peerDest runs for every
// queued message on every claim pass, so resolving a destination — by ID
// or by key, with or without a topology — must not allocate.
func TestPeerDestZeroAlloc(t *testing.T) {
	msgs := []warp.OutMsg{
		{Kind: warp.OutDelete, Target: "s0", RemoteReqID: "s0#2-req-1", Req: put("alpha", "v")},
		{Kind: warp.OutReplace, Target: "s0", RemoteReqID: "s1-req-4", Req: put("alpha", "v")},
		{Kind: warp.OutCreate, Target: "s0", BeforeID: "s0#1-req-3", Req: put("alpha", "v")},
		{Kind: warp.OutCreate, Target: "s0", Req: put("beta", "v")},
	}
	for _, n := range []int{0, 4} {
		c := &Controller{topo: topoS0(n)}
		var sink string
		allocs := testing.AllocsPerRun(200, func() {
			for _, m := range msgs {
				sink = c.peerDest(m)
			}
		})
		if allocs != 0 {
			t.Errorf("N=%d: peerDest allocates %.1f times per pass, want 0", n, allocs)
		}
		_ = sink
	}
}

// TestShardRouterRefusesShardlessFrame: a frame is one shard's batch, so a
// multi-shard router refuses one that does not name a shard of its service
// rather than guessing.
func TestShardRouterRefusesShardlessFrame(t *testing.T) {
	r, _ := shardRouter(topoS0(2), "s0")
	for _, hdr := range []string{"", "s0#2", "s1#0", "s0"} {
		frame := frameOf("a")
		if hdr != "" {
			frame.Header[wire.HdrShard] = hdr
		}
		resp := r.HandleWire("a", frame)
		if resp.Status != 400 || !strings.Contains(string(resp.Body), "names no shard") {
			t.Errorf("Aire-Shard %q: router answered %d %q, want 400 names no shard", hdr, resp.Status, resp.Body)
		}
	}
}

// TestOneShardRouterForwardsShardlessFrame: a one-shard service has no
// routing decision, so its router hands a frame without Aire-Shard to the
// shard, which answers it exactly as it would answer directly.
func TestOneShardRouterForwardsShardlessFrame(t *testing.T) {
	r, shards := shardRouter(topoS0(1), "s0")
	frame := frameOf("a")
	got := r.HandleWire("a", frame)
	want := shards[0].HandleWire("a", frame)
	if strings.Contains(string(got.Body), "names no shard") || !got.Equal(want) {
		t.Fatalf("one-shard router answered %d %q, shard answers %d %q", got.Status, got.Body, want.Status, want.Body)
	}
}

// TestShardRefusesSiblingsFrame: a frame stamped for a sibling shard must
// never be absorbed into this shard's dedup inbox; the shard fails loudly
// and retryably.
func TestShardRefusesSiblingsFrame(t *testing.T) {
	_, shards := shardRouter(topoS0(2), "s0")
	frame := frameOf("a")
	frame.Header[wire.HdrShard] = "s0#0"
	resp := shards[1].HandleWire("a", frame)
	if resp.Status != 500 || !strings.Contains(string(resp.Body), "addressed to shard s0#0") {
		t.Fatalf("shard s0#1 answered %d %q to a frame for s0#0, want 500 addressed to shard", resp.Status, resp.Body)
	}
}

// FuzzShardRoute checks the routing rule over arbitrary IDs and keys: it
// never panics, always resolves to one of the service's shard names, and
// routes an ID of the form "s0#i-…" (i < n) to shard i.
func FuzzShardRoute(f *testing.F) {
	f.Add("s0#2-req-1", "alpha", uint8(4))
	f.Add("s0#9-req-1", "", uint8(4))
	f.Add("s0#x-req-1", "k", uint8(3))
	f.Add("s1#2-req-1", "k", uint8(2))
	f.Add("s0#", "", uint8(1))
	f.Add("s0#99999999999999999999-req-1", "k", uint8(7))
	f.Fuzz(func(t *testing.T, id, key string, n uint8) {
		shards := int(n%8) + 1
		topo := topoS0(shards)
		req := wire.NewRequest("POST", "/put").WithForm("key", key)

		i := topo.Route("s0", req, id)
		if i < 0 || i >= shards {
			t.Fatalf("Route(%q, key %q) = %d, outside [0, %d)", id, key, i, shards)
		}
		name := (&Controller{topo: topo}).peerDest(warp.OutMsg{Kind: warp.OutDelete, Target: "s0", RemoteReqID: id, Req: req})
		if want := topo.ShardName("s0", i); name != want {
			t.Fatalf("peerDest(%q) = %q, Route picks %q", id, name, want)
		}
		if shards == 1 && name != "s0" || shards > 1 && name != wire.ShardName("s0", i) {
			t.Fatalf("%q resolves to %q, not one of s0's %d shard names", id, name, shards)
		}

		// An ID minted by shard j names shard j, whatever follows.
		j := len(id) % shards
		if got := topo.Route("s0", req, fmt.Sprintf("s0#%d-%s", j, id)); got != j {
			t.Fatalf("s0#%d-%q routes to %d", j, id, got)
		}
		// The same holds for a fuzzed ID in canonical minted form.
		if rest, ok := strings.CutPrefix(id, "s0#"); ok {
			if d, _, ok := strings.Cut(rest, "-"); ok {
				if k, err := strconv.Atoi(d); err == nil && k >= 0 && k < shards && d == strconv.Itoa(k) && i != k {
					t.Fatalf("%q routes to %d, want %d", id, i, k)
				}
			}
		}
	})
}
