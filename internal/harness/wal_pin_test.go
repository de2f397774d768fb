package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aire/internal/core"
	"aire/internal/dsched"
	"aire/internal/orm"
	"aire/internal/simnet"
	"aire/internal/transport"
	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/web"
	"aire/internal/wire"
)

// copyKVApp is KVApp plus POST /copy, whose write depends on a read of
// src: the dependency a repair wave chases (the repair.wave benchmark's
// application).
type copyKVApp struct {
	KVApp
}

func (a *copyKVApp) Register(svc *web.Service) {
	a.KVApp.Register(svc)
	svc.Router.Handle("POST", "/copy", func(c *web.Ctx) wire.Response {
		o, ok := c.DB.Get("kv", c.Form("src"))
		if !ok {
			return c.Error(404, "missing")
		}
		dst, val := c.Form("dst"), o.Get("val")
		if err := c.DB.Put("kv", dst, orm.Fields("val", val)); err != nil {
			return c.Error(500, err.Error())
		}
		for _, m := range a.mirrors() {
			c.Call(m, wire.NewRequest("POST", "/put").WithForm("key", dst, "val", val))
		}
		return c.OK("ok")
	})
}

// walDirBytes sums the sizes of the WAL segments in dir.
func walDirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, s := range segs {
		fi, err := os.Stat(filepath.Join(dir, s))
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestRepairWaveWALPinned pins what one repair wave costs the hub's WAL
// and the bus, in counts: a hub mirroring to three peers on the in-process
// bus, with a real WAL that fsyncs every commit. An attack write is copied
// into N dependents; cancelling it repairs all N+1 requests and queues a
// delete per request per peer, and Flush delivers the 3(N+1) carriers. The
// wave's WAL bytes, entries and fsyncs and its bus calls are the same on
// every host and every run, so a change that logs an extra op, splits a
// commit or adds a round trip fails here. The two sizes show how the
// counts grow with the wave.
//
// The 32-dependent WAL bytes fell once on purpose, 58 188 → 55 443, when a
// queued message's delivery ID became its only name: the repair entry's 99
// q-set ops no longer carry the retired MsgID or the next_id counter,
// while each of the 99 q-dels names the delivery ID ("delivery_id":
// "hub-dlv-N", a few bytes longer than the "msg_id" it replaces). The
// bytes fell again, 55 443 → 15 148 and 543 546 → 152 548, when WAL
// entries became binary (segment version 2): a q-set no longer spells out
// every field name of the queued message. The entries, fsyncs and bus
// calls did not move.
func TestRepairWaveWALPinned(t *testing.T) {
	for _, tc := range []struct {
		dependents int
		bytes      int64  // hub WAL bytes written by the wave
		entries    uint64 // hub WAL entries: the repair, then one reconcile per frame
		syncs      int    // fsyncs: one per entry under FsyncEveryCommit
		calls      int64  // bus calls: one per frame
	}{
		{dependents: 32, bytes: 15148, entries: 4, syncs: 4, calls: 3},
		// A frame carries at most wire.MaxFrameCarriers (256), so each peer's
		// 321 carriers take two.
		{dependents: 320, bytes: 152548, entries: 7, syncs: 7, calls: 6},
	} {
		t.Run(fmt.Sprintf("dependents=%d", tc.dependents), func(t *testing.T) {
			bytes, entries, fsyncs, calls := measureRepairWave(t, tc.dependents, 0)
			t.Logf("one wave: %d WAL bytes, %d entries, %d fsyncs, %d bus calls", bytes, entries, fsyncs, calls)
			if bytes != tc.bytes || entries != tc.entries || fsyncs != tc.syncs || calls != tc.calls {
				t.Errorf("wave = %d bytes, %d entries, %d fsyncs, %d bus calls; want %d, %d, %d, %d",
					bytes, entries, fsyncs, calls, tc.bytes, tc.entries, tc.syncs, tc.calls)
			}
		})
	}
}

// TestRepairWavePumpPinned is TestRepairWaveWALPinned's 32-dependent
// wave delivered by the background pump instead of Flush: StartPump under
// a seeded dsched scheduler, so every pass runs the batch policy and
// admission. Nothing else is queued, so admission never caps the claim,
// and one pass claims each peer's whole backlog (33 carriers, under the
// policy's Max of 64): one frame per peer, so one bus call and one
// reconcile entry (one fsync) per peer after the repair entry, the same
// counts as Flush. The counts are the same for every seed.
func TestRepairWavePumpPinned(t *testing.T) {
	const (
		dependents = 32
		entries    = 4 // the repair, then one reconcile per frame
		syncs      = 4 // one per entry under FsyncEveryCommit
		calls      = 3 // bus calls: one frame per peer
	)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, e, f, c := measureRepairWave(t, dependents, seed)
			t.Logf("one pumped wave: %d entries, %d fsyncs, %d bus calls", e, f, c)
			if e != entries || f != syncs || c != calls {
				t.Errorf("pumped wave = %d entries, %d fsyncs, %d bus calls; want %d, %d, %d",
					e, f, c, entries, syncs, calls)
			}
		})
	}
}

// measureRepairWave runs TestRepairWaveWALPinned's wave with the given
// number of dependents and returns its hub WAL bytes, entries and fsyncs
// and its bus calls. pumpSeed 0 delivers the wave with Flush; any other
// value delivers it with the hub's background pump, run by a dsched
// scheduler seeded with pumpSeed on a virtual clock.
func measureRepairWave(t *testing.T, dependents int, pumpSeed int64) (bytes int64, entries uint64, fsyncs int, calls int64) {
	t.Helper()
	bus := transport.NewBus()
	hubCfg := core.DefaultConfig()
	var clock *simnet.Clock
	var sd *dsched.Sched
	if pumpSeed != 0 {
		clock = simnet.NewClock(simClockStart)
		sd = dsched.New(pumpSeed, clock)
		hubCfg.Sched, hubCfg.Clock = sd, clock.Now
	}
	hub, _ := newWaveWorld(bus, hubCfg)
	dir := t.TempDir()
	syncs := 0
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncEveryCommit, OnSync: func(time.Duration) { syncs++ }})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	hub.AttachWAL(w)

	attack := seedWave(t, bus, dependents)

	bytes0, seq0, syncs0 := walDirBytes(t, dir), w.Seq(), syncs
	calls0, _ := bus.Stats()
	delivered0 := hub.Stats().MsgsDelivered
	if _, err := hub.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack}); err != nil {
		t.Fatal(err)
	}
	want := int64(3 * (dependents + 1))
	if sd == nil {
		if delivered, left := hub.Flush(); int64(delivered) != want || left != 0 {
			t.Fatalf("Flush delivered %d and left %d, want %d and 0", delivered, left, want)
		}
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := hub.StartPump(ctx); err != nil {
			t.Fatal(err)
		}
		for round := 0; hub.QueueLen() > 0; round++ {
			if round == 100 {
				t.Fatalf("pump left %d messages queued after %d rounds", hub.QueueLen(), round)
			}
			sd.RunUntilIdle()
			clock.Advance(simPulseStep)
		}
		cancel()
		sd.RunUntilIdle()
		if live := sd.Live(); live != 0 {
			t.Fatalf("%d scheduler tasks still live after the pump stopped", live)
		}
		if delivered := hub.Stats().MsgsDelivered - delivered0; delivered != want {
			t.Fatalf("pump delivered %d, want %d", delivered, want)
		}
	}
	calls1, _ := bus.Stats()
	return walDirBytes(t, dir) - bytes0, w.Seq() - seq0, syncs - syncs0, calls1 - calls0
}

// waveHub and wavePeers name the wave world's services.
const waveHub = "hub"

var wavePeers = []string{"p0", "p1", "p2"}

// newWaveWorld registers the repair-wave world on bus: a hub that mirrors
// every write and copy to three peers, each an Aire KV service with the
// default configuration. It returns the hub and the peers.
func newWaveWorld(bus *transport.Bus, hubCfg core.Config) (*core.Controller, []*core.Controller) {
	hub := core.NewController(&copyKVApp{KVApp{ServiceName: waveHub, Mirrors: wavePeers}}, bus, hubCfg)
	bus.Register(waveHub, hub)
	var peers []*core.Controller
	for _, p := range wavePeers {
		c := core.NewController(&KVApp{ServiceName: p}, bus, core.DefaultConfig())
		bus.Register(p, c)
		peers = append(peers, c)
	}
	return hub, peers
}

// seedWave writes the attack on the hub and copies it into dependents
// keys, and returns the attack's request ID: cancelling it repairs all
// dependents+1 requests and queues a delete per request per peer.
func seedWave(t *testing.T, bus *transport.Bus, dependents int) string {
	t.Helper()
	call := func(req wire.Request) wire.Response {
		t.Helper()
		resp, err := bus.Call("", waveHub, req)
		if err != nil || !resp.OK() {
			t.Fatalf("%s %v: %v %+v", req.Path, req.Form, err, resp)
		}
		return resp
	}
	attack := call(wire.NewRequest("POST", "/put").WithForm("key", "x", "val", "evil")).Header[wire.HdrRequestID]
	for i := 0; i < dependents; i++ {
		call(wire.NewRequest("POST", "/copy").WithForm("src", "x", "dst", fmt.Sprintf("d%d", i)))
	}
	return attack
}
