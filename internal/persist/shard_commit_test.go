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

// runCrossShardBatchCrash drives one cross-shard repair wave through a
// sharded receiver and crashes between (or inside) the two shards'
// independent WAL commits. An unsharded upstream "a" mirrors two keys to a
// two-shard "b" (one key per shard); cancelling both attack writes in one
// repair wave at "a" sends each shard its own frame, which the shard
// applies as one atomic entry on its own log — there is no cross-shard log
// ordering. Both answers are lost, so "a" still holds both messages.
//
// The crash is simulated by truncating shard i's WAL back to keep[i]
// entries past its pre-delivery point. Since the logs are independent,
// every combination of per-shard boundaries is a reachable power-loss
// state — including the interesting one where shard 0's commit is durable
// and shard 1's is not. After parallel recovery (persist.RecoverShards) the
// sender's redelivery must make the wave whole from each shard's own
// durable state: re-acknowledged where the frame survived, applied where it
// did not. Returns both shards' values for the repaired keys and the
// per-shard entry counts the frames appended.
func runCrossShardBatchCrash(t *testing.T, keep [2]uint64) (vals [2]string, appended [2]uint64) {
	t.Helper()
	dirs := []string{t.TempDir(), t.TempDir()}
	bus := transport.NewBus()
	topo := core.NewShardTopology()
	topo.SetShards("b", 2)
	k0, k1 := crossShardKeys(t, topo)

	acfg := core.DefaultConfig()
	acfg.Topology = topo
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, &lossyCaller{bus: bus, lose: 2}, acfg)
	bus.Register("a", a)

	shardCfg := core.DefaultConfig()
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

	// One repair wave cancels both attacks: one frame per shard of b.
	if _, err := a.ApplyLocal(
		warp.Action{Kind: warp.CancelReq, ReqID: attack0.Header[wire.HdrRequestID]},
		warp.Action{Kind: warp.CancelReq, ReqID: attack1.Header[wire.HdrRequestID]},
	); err != nil {
		t.Fatal(err)
	}
	var before [2]uint64
	for i, w := range writers {
		before[i] = w.Seq()
	}
	a.Flush()
	if a.QueueLen() != 2 {
		t.Fatalf("a holds %d messages, want 2 (both frames' answers were lost)", a.QueueLen())
	}
	for i, w := range writers {
		appended[i] = w.Seq() - before[i]
		if keep[i] > appended[i] {
			t.Fatalf("crash point %d past shard %d's %d entries", keep[i], i, appended[i])
		}
	}

	// Power loss: both WALs stop where they are, then shard i's log is cut
	// back to keep[i] entries past its pre-delivery point.
	for i, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		truncateWALAfter(t, dirs[i], before[i]+keep[i])
	}

	// Parallel per-shard recovery, then a fresh router over the recovered
	// shards; the sender redelivers both frames.
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
	a.Flush()
	if a.QueueLen() != 0 {
		t.Fatalf("redelivered frames left %d messages at a", a.QueueLen())
	}
	vals[0] = string(mustCall("b", wire.NewRequest("GET", "/get").WithForm("key", k0)).Body)
	vals[1] = string(mustCall("b", wire.NewRequest("GET", "/get").WithForm("key", k1)).Body)
	return vals, appended
}

// TestCrossShardBatchSurvivesAnyCrashPoint sweeps every combination of
// per-shard WAL crash boundaries across one cross-shard repair wave. Each
// shard's frame is one atomic entry on its own log, and there is no
// cross-shard ordering between the two logs — so at every boundary
// combination each shard recovers either to "applied" (entry durable, the
// redelivery re-acknowledged) or to "untouched" (the redelivery applies),
// and the wave is never half-applied from the service's point of view.
// keep={1,0} is the classic torn state: a crash after shard 0's commit but
// before shard 1's.
func TestCrossShardBatchSurvivesAnyCrashPoint(t *testing.T) {
	_, appended := runCrossShardBatchCrash(t, [2]uint64{0, 0})
	if appended[0] != 1 || appended[1] != 1 {
		t.Fatalf("cross-shard wave appended %v entries, want 1 atomic entry per shard", appended)
	}
	for keep0 := uint64(0); keep0 <= appended[0]; keep0++ {
		for keep1 := uint64(0); keep1 <= appended[1]; keep1++ {
			t.Run(fmt.Sprintf("keep=%d,%d", keep0, keep1), func(t *testing.T) {
				vals, _ := runCrossShardBatchCrash(t, [2]uint64{keep0, keep1})
				if vals[0] != "good" || vals[1] != "good" {
					t.Fatalf("crash at boundaries (%d,%d) half-applied the wave: values %v, want both %q",
						keep0, keep1, vals, "good")
				}
			})
		}
	}
}
