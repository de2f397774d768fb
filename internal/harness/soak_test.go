package harness

import (
	"fmt"
	"math/rand"
	"testing"

	"aire/internal/core"
	"aire/internal/vdb"
	"aire/internal/wire"
)

// soakOp is one step of the randomized system test.
type soakOp struct {
	kind    int // 0..2 traffic, 3 toggle-b, 4 cancel-random-put, 5 settle
	key     int
	val     int
	victim  int // which earlier put to cancel
	offline bool
}

// TestSoakRandomizedSystem interleaves traffic, repairs, and outages on a
// mirrored pair, then verifies against a golden world that ran the same
// schedule without the cancelled requests. This is the §3.3 convergence
// argument under realistic noise: repairs initiated while the peer is down,
// repairs of repairs, and traffic continuing throughout.
func TestSoakRandomizedSystem(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(60)
		ops := make([]soakOp, n)
		for i := range ops {
			ops[i] = soakOp{
				kind:    rng.Intn(6),
				key:     rng.Intn(6),
				val:     rng.Intn(1000),
				victim:  rng.Intn(n),
				offline: rng.Intn(2) == 0,
			}
		}
		runSoak(t, seed, ops)
	}
}

// runSoak replays one seeded schedule; every failure names the seed so a
// CI flake is reproducible verbatim.
func runSoak(t *testing.T, seed int64, ops []soakOp) {
	t.Helper()
	build := func() (*Testbed, *core.Controller, *core.Controller) {
		tb := NewTestbed()
		a := tb.Add(&KVApp{ServiceName: "a", Mirror: "b"}, core.DefaultConfig())
		b := tb.Add(&KVApp{ServiceName: "b"}, core.DefaultConfig())
		tb.FreezeTime(1_380_000_000)
		return tb, a, b
	}

	// Pass 1: the attacked world, recording put request IDs and the set of
	// cancelled op indices.
	tb1, a1, b1 := build()
	putIDs := map[int]string{}
	cancelled := map[int]bool{}
	for i, op := range ops {
		switch op.kind {
		case 0, 1: // put (twice as likely as get)
			resp := tb1.Call("a", wire.NewRequest("POST", "/put").
				WithForm("key", fmt.Sprintf("k%d", op.key), "val", fmt.Sprint(op.val)))
			if resp.OK() {
				putIDs[i] = resp.Header[wire.HdrRequestID]
			}
		case 2:
			tb1.Call("a", wire.NewRequest("GET", "/sum"))
		case 3:
			tb1.SetOffline("b", op.offline)
		case 4:
			// Cancel a random earlier (not-yet-cancelled) put.
			for j := op.victim % len(ops); j >= 0; j-- {
				if id, ok := putIDs[j]; ok && !cancelled[j] {
					if _, err := a1.ApplyLocal(cancelAction(id)); err != nil {
						t.Fatalf("seed %d: cancel: %v", seed, err)
					}
					cancelled[j] = true
					break
				}
			}
		case 5:
			tb1.Settle(3)
		}
	}
	// Quiesce: bring b online, revive messages that were parked during the
	// outage (the administrator's Retry workflow, §7.2), drain everything.
	tb1.SetOffline("b", false)
	for _, ctrl := range []*core.Controller{a1, b1} {
		for _, p := range ctrl.Pending() {
			if p.Held {
				if err := ctrl.Retry(p.DeliveryID, nil); err != nil {
					t.Fatalf("seed %d: retry: %v", seed, err)
				}
			}
		}
	}
	tb1.Settle(50)
	if q := tb1.QueuedMessages(); q != 0 {
		t.Fatalf("seed %d: %d repair messages stuck after settle", seed, q)
	}

	// Pass 2: the golden world — same schedule (including outages, which
	// shape what reached b) minus the cancelled puts.
	tb2, _, b2 := build()
	for i, op := range ops {
		switch op.kind {
		case 0, 1:
			if cancelled[i] {
				continue
			}
			tb2.Call("a", wire.NewRequest("POST", "/put").
				WithForm("key", fmt.Sprintf("k%d", op.key), "val", fmt.Sprint(op.val)))
		case 2:
			tb2.Call("a", wire.NewRequest("GET", "/sum"))
		case 3:
			tb2.SetOffline("b", op.offline)
		}
	}
	tb2.SetOffline("b", false)

	// The repaired world's service-a state must equal golden exactly.
	gotA, wantA := soakState(a1.Svc.Store), soakState(tb2.Ctrls["a"].Svc.Store)
	_ = tb2
	if gotA != wantA {
		t.Fatalf("seed %d: service a diverged\nrepaired: %s\ngolden:   %s\ncancelled=%v", seed, gotA, wantA, cancelled)
	}
	// Service b: every cancelled value must be gone. (Exact equality with
	// golden does not hold for b: mirrored writes dropped during an outage
	// are not replayed by repair — Aire undoes effects, it does not deliver
	// missed traffic.)
	gotB := soakState(b1.Svc.Store)
	for i := range cancelled {
		if !cancelled[i] {
			continue
		}
		bad := fmt.Sprint(ops[i].val)
		if containsValue(b1.Svc.Store, bad) && !containsValue(b2.Svc.Store, bad) {
			t.Fatalf("seed %d: cancelled value %q survives on b: %s", seed, bad, gotB)
		}
	}
}

func soakState(s *vdb.Store) string {
	out := ""
	for _, id := range s.IDs("kv") {
		v, _ := s.Get(vdb.Key{Model: "kv", ID: id})
		out += id + "=" + v.Fields["val"] + ";"
	}
	return out
}

func containsValue(s *vdb.Store, val string) bool {
	for _, id := range s.IDs("kv") {
		v, _ := s.Get(vdb.Key{Model: "kv", ID: id})
		if v.Fields["val"] == val {
			return true
		}
	}
	return false
}
