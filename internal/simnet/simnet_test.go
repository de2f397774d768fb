package simnet

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"aire/internal/transport"
	"aire/internal/wire"
)

// countingPeer records every delivery it receives.
type countingPeer struct {
	mu    sync.Mutex
	paths []string
}

func (p *countingPeer) HandleWire(from string, req wire.Request) wire.Response {
	p.mu.Lock()
	p.paths = append(p.paths, req.Path)
	p.mu.Unlock()
	return wire.NewResponse(200, "ok")
}

func (p *countingPeer) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.paths)
}

func world() (*transport.Bus, *countingPeer) {
	bus := transport.NewBus()
	peer := &countingPeer{}
	bus.Register("b", peer)
	return bus, peer
}

func repairReq() wire.Request { return wire.NewRequest("POST", "/aire/repair") }

func TestNormalTrafficNeverFaulted(t *testing.T) {
	bus, peer := world()
	n := New(bus, 1, FaultPlan{Drop: 1})
	for i := 0; i < 50; i++ {
		if _, err := n.Call("a", "b", wire.NewRequest("POST", "/put")); err != nil {
			t.Fatalf("normal traffic faulted: %v", err)
		}
	}
	if peer.count() != 50 {
		t.Fatalf("peer saw %d normal calls, want 50", peer.count())
	}
}

func TestDropLosesCallBeforePeer(t *testing.T) {
	bus, peer := world()
	n := New(bus, 1, FaultPlan{Drop: 1})
	_, err := n.Call("a", "b", repairReq())
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("drop must look like an unavailable peer, got %v", err)
	}
	if peer.count() != 0 {
		t.Fatal("dropped call reached the peer")
	}
}

func TestDropResponseDeliversButFails(t *testing.T) {
	bus, peer := world()
	n := New(bus, 1, FaultPlan{DropResponse: 1})
	_, err := n.Call("a", "b", repairReq())
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("lost response must look like an unavailable peer, got %v", err)
	}
	if peer.count() != 1 {
		t.Fatalf("peer deliveries = %d, want 1 (applied despite lost response)", peer.count())
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	bus, peer := world()
	n := New(bus, 1, FaultPlan{Duplicate: 1})
	resp, err := n.Call("a", "b", repairReq())
	if err != nil || resp.Status != 200 {
		t.Fatalf("duplicate must return the first response: %v %+v", err, resp)
	}
	if peer.count() != 2 {
		t.Fatalf("peer deliveries = %d, want 2", peer.count())
	}
}

func TestDelayHoldsUntilTick(t *testing.T) {
	bus, peer := world()
	n := New(bus, 1, FaultPlan{Delay: 1})
	if _, err := n.Call("a", "b", repairReq()); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("delayed call must fail now, got %v", err)
	}
	if peer.count() != 0 || n.HeldCount() != 1 {
		t.Fatalf("delayed call should be held: delivered=%d held=%d", peer.count(), n.HeldCount())
	}
	if got := n.Tick(); got != 1 {
		t.Fatalf("Tick delivered %d, want 1", got)
	}
	if peer.count() != 1 || n.HeldCount() != 0 {
		t.Fatalf("after Tick: delivered=%d held=%d", peer.count(), n.HeldCount())
	}
}

// TestLostCursesEveryFrameCarrier: a Lost roll on a frame curses every
// delivery it carries; any later frame carrying a cursed delivery is lost
// unless it is an anti-entropy re-offer, which passes and lifts the curse
// for the deliveries it carries.
func TestLostCursesEveryFrameCarrier(t *testing.T) {
	bus := transport.NewBus()
	peer := &countingPeer{}
	bus.Register("b", peer)
	frame := func(ids ...string) wire.Request {
		var cs []wire.Request
		for _, id := range ids {
			cs = append(cs, repairReq().WithHeader(wire.HdrDeliveryID, id))
		}
		req := wire.NewRequest("POST", wire.FramePath)
		req.Body = wire.EncodeFrame(cs)
		return req
	}
	n := New(bus, 1, FaultPlan{Lost: 1})
	if _, err := n.Call("a", "b", frame("a-dlv-1", "a-dlv-2")); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("lost frame: %v", err)
	}
	n.plan = FaultPlan{} // from here on only the curse decides
	if _, err := n.Call("a", "b", frame("a-dlv-2", "a-dlv-3")); err == nil {
		t.Fatal("a frame carrying a cursed delivery got through")
	}
	reoffer := frame("a-dlv-1")
	reoffer.Header[wire.HdrReoffer] = "1"
	if _, err := n.Call("a", "b", reoffer); err != nil {
		t.Fatalf("re-offer: %v", err)
	}
	if _, err := n.Call("a", "b", frame("a-dlv-1")); err != nil {
		t.Fatalf("re-offer did not lift the curse: %v", err)
	}
	if peer.count() != 2 {
		t.Fatalf("peer saw %d frames, want 2", peer.count())
	}
}

func TestPartitionBlocksOnlyCrossGroupRepairTraffic(t *testing.T) {
	bus, _ := world()
	c := &countingPeer{}
	bus.Register("c", c)
	n := New(bus, 1, FaultPlan{})
	n.Partition([]string{"a", "b"}, []string{"c"})

	if _, err := n.Call("a", "c", repairReq()); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("cross-partition repair call must fail, got %v", err)
	}
	if _, err := n.Call("a", "b", repairReq()); err != nil {
		t.Fatalf("same-group repair call failed: %v", err)
	}
	if _, err := n.Call("a", "c", wire.NewRequest("POST", "/put")); err != nil {
		t.Fatalf("normal traffic must cross partitions: %v", err)
	}
	n.Heal()
	if _, err := n.Call("a", "c", repairReq()); err != nil {
		t.Fatalf("healed fabric still failing: %v", err)
	}
	if got := n.Counts()[FaultPartition]; got != 1 {
		t.Fatalf("partition count = %d, want 1", got)
	}
}

// TestPartitionHoldsDelayedCalls: a call delayed before a partition starts
// must not leak across it on Tick — the partition is airtight until Heal.
func TestPartitionHoldsDelayedCalls(t *testing.T) {
	bus, peer := world()
	n := New(bus, 1, FaultPlan{Delay: 1})
	if _, err := n.Call("a", "b", repairReq()); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("delayed call must fail now, got %v", err)
	}
	n.Partition([]string{"a"}, []string{"b"})
	if got := n.Tick(); got != 0 || peer.count() != 0 || n.HeldCount() != 1 {
		t.Fatalf("held call leaked across partition: delivered=%d seen=%d held=%d", got, peer.count(), n.HeldCount())
	}
	n.Heal()
	if got := n.Tick(); got != 1 || peer.count() != 1 {
		t.Fatalf("held call not delivered after heal: delivered=%d seen=%d", got, peer.count())
	}
}

// TestSeedDeterminism: identical seeds and call sequences produce identical
// fault schedules; a different seed produces a different one.
func TestSeedDeterminism(t *testing.T) {
	run := func(seed int64) ([]string, map[string]int) {
		bus, _ := world()
		n := New(bus, seed, FaultPlan{Drop: 0.25, DropResponse: 0.25, Duplicate: 0.25, Delay: 0.25})
		for i := 0; i < 40; i++ {
			n.Call("a", "b", repairReq())
			if i%5 == 0 {
				n.Tick()
			}
		}
		n.Tick()
		return n.Trace(), n.Counts()
	}
	t1, c1 := run(7)
	t2, c2 := run(7)
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(c1, c2) {
		t.Fatalf("same seed diverged:\n%v\n%v", t1, t2)
	}
	t3, _ := run(8)
	if reflect.DeepEqual(t1, t3) {
		t.Fatal("different seeds produced identical 40-call fault schedules")
	}
}

func TestClock(t *testing.T) {
	c := NewClock(1000)
	if got := c.Now(); !got.Equal(time.Unix(1000, 0)) {
		t.Fatalf("start = %v", got)
	}
	c.Advance(90 * time.Second)
	if got := c.Now(); !got.Equal(time.Unix(1090, 0)) {
		t.Fatalf("after advance = %v", got)
	}
}
