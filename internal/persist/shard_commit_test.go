package persist_test

import (
	"fmt"
	"testing"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// crossShardKeys returns two keys that hash to shard 0 and shard 1 of a
// two-shard "b", so one repair wave produces a genuinely cross-shard batch.
func crossShardKeys(t *testing.T, topo *core.ShardTopology) (k0, k1 string) {
	t.Helper()
	for i := 0; i < 64 && (k0 == "" || k1 == ""); i++ {
		k := fmt.Sprintf("key-%d", i)
		switch topo.ShardOf("b", k) {
		case 0:
			if k0 == "" {
				k0 = k
			}
		case 1:
			if k1 == "" {
				k1 = k
			}
		}
	}
	if k0 == "" || k1 == "" {
		t.Fatal("could not find keys for both shards")
	}
	return k0, k1
}

// runCrossShardBatchCrash drives one cross-shard batch through a sharded
// receiver and crashes between (or inside) the two shards' independent WAL
// commits. An unsharded upstream "a" mirrors two keys to a two-shard "b"
// (one key per shard); cancelling both attack writes in one repair wave at
// "a" sends a repair carrier to each shard, which each shard accepts into
// its pending batch (two-phase gate, phase 1: a durable batch-accept on the
// shard's own WAL). ProcessIncoming then applies the batch shard by shard —
// phase 2, one atomic WAL entry per shard with no cross-shard log ordering.
//
// The crash is simulated by truncating shard i's WAL back to keep[i] entries
// past its accept point. Since the logs are independent, every combination
// of per-shard boundaries is a reachable power-loss state — including the
// interesting one where shard 0's commit is durable and shard 1's is not.
// After parallel recovery (persist.RecoverShards) the re-run of
// ProcessIncoming must make the batch whole from each shard's own durable
// state: either the shard had applied (entry durable, accepted actions
// drained) or its batch is still pending and re-applies. Returns both
// shards' values for the repaired keys and the per-shard entry counts the
// apply appended.
func runCrossShardBatchCrash(t *testing.T, keep [2]uint64) (vals [2]string, appended [2]uint64) {
	t.Helper()
	dirs := []string{t.TempDir(), t.TempDir()}
	bus := transport.NewBus()
	topo := core.NewShardTopology()
	topo.SetShards("b", 2)
	k0, k1 := crossShardKeys(t, topo)

	acfg := core.DefaultConfig()
	acfg.Topology = topo
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, acfg)
	bus.Register("a", a)

	shardCfg := core.DefaultConfig()
	shardCfg.BatchIncoming = true
	shardCfg.Topology = topo
	newShards := func() []*core.Controller {
		shards := make([]*core.Controller, 2)
		for i := range shards {
			name := topo.ShardName("b", i)
			shards[i] = core.NewController(&harness.KVApp{ServiceName: name}, bus, shardCfg)
			bus.Register(name, shards[i])
		}
		return shards
	}
	shards := newShards()
	writers, err := persist.RecoverShards(shards, dirs, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("b", core.NewShardedController("b", topo, shards))

	mustCall := func(svc string, req wire.Request) wire.Response {
		t.Helper()
		resp, err := bus.Call("", svc, req)
		if err != nil || !resp.OK() {
			t.Fatalf("%s %s: %v %+v", req.Method, req.Path, err, resp)
		}
		return resp
	}
	putReq := func(key, val string) wire.Request {
		return wire.NewRequest("POST", "/put").WithForm("key", key, "val", val)
	}
	mustCall("a", putReq(k0, "good"))
	mustCall("a", putReq(k1, "good"))
	attack0 := mustCall("a", putReq(k0, "evil"))
	attack1 := mustCall("a", putReq(k1, "evil"))

	// One repair wave cancels both attacks: its cascade is one cross-shard
	// batch — a repair carrier to each shard of b.
	if _, err := a.ApplyLocal(
		warp.Action{Kind: warp.CancelReq, ReqID: attack0.Header[wire.HdrRequestID]},
		warp.Action{Kind: warp.CancelReq, ReqID: attack1.Header[wire.HdrRequestID]},
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if d, _ := a.Flush(); d == 0 {
			break
		}
	}
	var accepted [2]uint64
	for i, s := range shards {
		if s.InboxLen() == 0 {
			t.Fatalf("shard %d did not accept its half of the cross-shard batch", i)
		}
		accepted[i] = writers[i].Seq()
	}

	// Phase 2: each shard applies its half of the pending batch on its own
	// WAL.
	for i, s := range shards {
		if _, err := s.ProcessIncoming(); err != nil {
			t.Fatal(err)
		}
		appended[i] = writers[i].Seq() - accepted[i]
		if keep[i] > appended[i] {
			t.Fatalf("crash point %d past shard %d's %d entries", keep[i], i, appended[i])
		}
	}

	// Power loss: both WALs stop where they are, then shard i's log is cut
	// back to keep[i] entries past its accept point.
	for i, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		truncateWALAfter(t, dirs[i], accepted[i]+keep[i])
	}

	// Parallel per-shard recovery, then a fresh router over the recovered
	// shards. The upstream saw 202s and reconciled, so nothing retries: each
	// shard must make its half whole from its own durable state.
	fresh := newShards()
	writers2, err := persist.RecoverShards(fresh, dirs, wal.Options{Policy: wal.FsyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range writers2 {
			w.Close()
		}
	}()
	bus.Register("b", core.NewShardedController("b", topo, fresh))
	for _, s := range fresh {
		if _, err := s.ProcessIncoming(); err != nil {
			t.Fatal(err)
		}
	}
	core.Settle(10, fresh...)
	vals[0] = string(mustCall("b", wire.NewRequest("GET", "/get").WithForm("key", k0)).Body)
	vals[1] = string(mustCall("b", wire.NewRequest("GET", "/get").WithForm("key", k1)).Body)
	return vals, appended
}

// TestCrossShardBatchSurvivesAnyCrashPoint sweeps every combination of
// per-shard WAL crash boundaries across one cross-shard batch commit. A
// shard's apply is one atomic entry on its own log, and there is no
// cross-shard ordering between the two logs — so the recovery invariant is
// exactly the two-phase gate's: at every boundary combination each shard
// recovers either to "applied" (entry durable) or to "pending" (accepted
// batch re-applies on the next ProcessIncoming), and the batch is never
// half-applied from the service's point of view once the gate re-runs.
// In particular keep={1,0} is the classic torn state: a crash after shard
// 0's commit but before shard 1's.
func TestCrossShardBatchSurvivesAnyCrashPoint(t *testing.T) {
	_, appended := runCrossShardBatchCrash(t, [2]uint64{0, 0})
	if appended[0] != 1 || appended[1] != 1 {
		t.Fatalf("cross-shard batch appended %v entries, want 1 atomic entry per shard", appended)
	}
	for keep0 := uint64(0); keep0 <= appended[0]; keep0++ {
		for keep1 := uint64(0); keep1 <= appended[1]; keep1++ {
			t.Run(fmt.Sprintf("keep=%d,%d", keep0, keep1), func(t *testing.T) {
				vals, _ := runCrossShardBatchCrash(t, [2]uint64{keep0, keep1})
				if vals[0] != "good" || vals[1] != "good" {
					t.Fatalf("crash at boundaries (%d,%d) half-applied the batch: values %v, want both %q",
						keep0, keep1, vals, "good")
				}
			})
		}
	}
}
