package persist_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aire/internal/core"
	"aire/internal/deliver"
	"aire/internal/harness"
	"aire/internal/obs"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// TestCheckpointRestoreKeepsQueuedMessages: a service restored from a
// checkpoint keeps minting delivery IDs above every ID it ever minted, so a
// later crash recovered as checkpoint + WAL tail cannot fold a new message
// into a restored one that shares its ID. a mirrors to b and c with c
// offline; the first cancel queues one delete per peer and b's delivers;
// a checkpoints and recovers holding only c's message; a second cancel
// queues two more; a crash (no checkpoint) must recover all three, and c
// must receive both deletes once it is back.
func TestCheckpointRestoreKeepsQueuedMessages(t *testing.T) {
	opts := wal.Options{Policy: wal.FsyncEveryCommit}
	bus := transport.NewBus()
	newA := func() *core.Controller {
		return core.NewController(&harness.KVApp{ServiceName: "a", Mirrors: []string{"b", "c"}}, bus, core.DefaultConfig())
	}
	a := newA()
	bus.Register("a", a)
	dir, w := attachWAL(t, a)
	for _, peer := range []string{"b", "c"} {
		bus.Register(peer, core.NewController(&harness.KVApp{ServiceName: peer}, bus, core.DefaultConfig()))
	}
	mustCall := func(svc string, req wire.Request) wire.Response {
		t.Helper()
		resp, err := bus.Call("", svc, req)
		if err != nil || !resp.OK() {
			t.Fatalf("%s %s %v: %v %+v", svc, req.Path, req.Form, err, resp)
		}
		return resp
	}
	put := func(key, val string) string {
		return mustCall("a", wire.NewRequest("POST", "/put").WithForm("key", key, "val", val)).Header[wire.HdrRequestID]
	}
	cancel := func(c *core.Controller, reqID string) {
		t.Helper()
		if _, err := c.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: reqID}); err != nil {
			t.Fatal(err)
		}
	}
	put("x", "good")
	attackX := put("x", "evil")
	put("y", "good")
	attackY := put("y", "evil")

	bus.SetOffline("c", true)
	cancel(a, attackX)
	if _, left := a.Flush(); left != 1 {
		t.Fatalf("after the first flush %d messages queued, want c's alone", left)
	}

	a2 := newA()
	w2 := restart(t, a, w, dir, a2)
	bus.Register("a", a2)
	cancel(a2, attackY)
	before := a2.Pending()
	if len(before) != 3 {
		t.Fatalf("queue before the crash = %v, want 3 messages", queued(before))
	}

	// Crash: no checkpoint, so recovery is the checkpoint above plus the
	// WAL tail holding the second cancel's q-sets.
	a2.DetachWAL()
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	a3 := newA()
	w3, err := persist.Recover(a3, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	bus.Register("a", a3)

	after := a3.Pending()
	ids := map[string]bool{}
	for _, p := range after {
		if ids[p.DeliveryID] {
			t.Errorf("delivery ID %s queued twice after recovery", p.DeliveryID)
		}
		ids[p.DeliveryID] = true
	}
	if len(after) != len(before) {
		t.Fatalf("recovery kept %v of %v", queued(after), queued(before))
	}

	bus.SetOffline("c", false)
	if _, left := a3.Flush(); left != 0 {
		t.Fatalf("%d messages left after delivery", left)
	}
	for _, peer := range []string{"b", "c"} {
		for _, key := range []string{"x", "y"} {
			if got := string(mustCall(peer, wire.NewRequest("GET", "/get").WithForm("key", key)).Body); got != "good" {
				t.Errorf("%s: %s = %q after both cancels, want %q", peer, key, got, "good")
			}
		}
	}
}

// queued names each message as "DeliveryID→peer".
func queued(ps []core.PendingMsg) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.DeliveryID+"→"+p.Msg.Target)
	}
	return out
}

// FuzzCheckpointLoad feeds arbitrary bytes to recovery as a service's
// latest checkpoint: LatestCheckpoint then Apply on a fresh controller must
// never panic, and must either refuse the input or leave a queue whose
// delivery IDs bear unique sequences the restored ID counter covers, so no
// later mint can reuse one and no two entries share a sender-vector slot.
func FuzzCheckpointLoad(f *testing.F) {
	bus := transport.NewBus()
	a := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, bus, core.DefaultConfig())
	bus.Register("a", a)
	bus.Register("b", core.NewController(&harness.KVApp{ServiceName: "b"}, bus, core.DefaultConfig()))
	put := func(val string) string {
		resp, err := bus.Call("", "a", wire.NewRequest("POST", "/put").WithForm("key", "x", "val", val))
		if err != nil || !resp.OK() {
			f.Fatalf("put %s: %v %+v", val, err, resp)
		}
		return resp.Header[wire.HdrRequestID]
	}
	put("good")
	attack := put("evil")
	bus.SetOffline("b", true)
	if _, err := a.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack}); err != nil {
		f.Fatal(err)
	}
	snap := persist.Capture(a)
	encode := func(s persist.Snapshot) []byte {
		seed, err := json.Marshal(persist.Checkpoint{Snap: &s})
		if err != nil {
			f.Fatal(err)
		}
		return seed
	}
	withSecond := func(id string) persist.Snapshot {
		s := *snap
		s.Queue = append(slices.Clone(snap.Queue), snap.Queue[0])
		s.Queue[1].DeliveryID = id
		return s
	}
	// The legacy seeds, each a checkpoint without a format field (version
	// 1): the captured cut; the cut as written while messages had a second
	// name, before delivery IDs existed (MsgID and next_id, no delivery
	// ID); the cut whose queue lists its entry twice, which loads as one;
	// and the cut with a second entry whose delivery ID is empty, bears a
	// sequence above the cut's ID counter, or bears the first entry's
	// sequence under another name.
	f.Add(encode(*snap))
	legacy := *snap
	legacy.Queue = []core.PendingMsg{snap.Queue[0]}
	legacy.Queue[0].DeliveryID = ""
	f.Add(bytes.Replace(encode(legacy), []byte(`"queue":[{`), []byte(`"next_id":1,"queue":[{"MsgID":"a-msg-1",`), 1))
	// The captured cut as format 2 writes it, and under a future format,
	// which LatestCheckpoint refuses.
	for _, format := range []uint32{2, 3} {
		seed, err := json.Marshal(persist.Checkpoint{Format: format, Snap: snap})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	seq := deliver.Seq(snap.Queue[0].DeliveryID)
	for _, id := range []string{
		snap.Queue[0].DeliveryID,
		"",
		fmt.Sprintf("a-dlv-%d", snap.IDCounter+5),
		fmt.Sprintf("a-zz-%d", seq),
		fmt.Sprintf("a-dlv-0%d", seq),
	} {
		f.Add(encode(withSecond(id)))
	}
	f.Add([]byte(strings.Replace(preEpochCheckpoint, `"service":"b"`, `"service":"a"`, 1)))
	f.Add([]byte(`{"up_to_seq":0,"snapshot":{"service":"a","clock_now":0,"id_counter":0,"records":[null],"objects":[]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, persist.CheckpointName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := persist.LatestCheckpoint(dir)
		if err != nil {
			return
		}
		c := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, transport.NewBus(), core.DefaultConfig())
		if err := persist.Apply(c, cp.Snap); err != nil {
			return
		}
		counter := c.Svc.IDs.Counter()
		seen := map[uint64]string{}
		for _, p := range c.Pending() {
			s := deliver.Seq(p.DeliveryID)
			if s == 0 || s > uint64(counter) {
				t.Fatalf("queued %q not covered by the restored counter %d", p.DeliveryID, counter)
			}
			if other, dup := seen[s]; dup {
				t.Fatalf("delivery IDs %q and %q queued with one sequence", other, p.DeliveryID)
			}
			seen[s] = p.DeliveryID
		}
	})
}

// TestRecoveredQueueDepthGauge: a controller recovered from a checkpoint
// holding one queued message exports core.<svc>.queue_depth = 1 at once,
// not only after its next enqueue or delivery.
func TestRecoveredQueueDepthGauge(t *testing.T) {
	_, a, w, dir := buildState(t)
	if n := a.QueueLen(); n != 1 {
		t.Fatalf("a holds %d queued messages before the checkpoint, want 1", n)
	}
	reg := obs.New(obs.DefaultRingCap)
	cfg := core.DefaultConfig()
	cfg.Obs = reg
	a2 := core.NewController(&harness.KVApp{ServiceName: "a", Mirror: "b"}, transport.NewBus(), cfg)
	restart(t, a, w, dir, a2)
	depth := reg.Snapshot().Gauges["core.a.queue_depth"]
	if n := a2.QueueLen(); n != 1 || depth != 1 {
		t.Fatalf("after recovery QueueLen = %d and core.a.queue_depth = %d, want 1 and 1", n, depth)
	}
}
