package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"aire/internal/warp"
	"aire/internal/wire"
)

// TestQueueConcurrencyHammer drives enqueue (via ApplyLocal replaces that
// collapse onto one key), Flush, Retry, Drop, Pending, and the background
// pump from many goroutines at once — the exact mix that used to race when
// Flush mutated Held/Attempts without qmu — and checks the collapse
// invariant throughout: the queue never holds two messages about the same
// request/response. Run under -race (CI does).
func TestQueueConcurrencyHammer(t *testing.T) {
	tb := newTestbed()
	cfg := DefaultConfig()
	a := tb.add(&kvApp{name: "a", mirror: "b"}, cfg)
	tb.add(&kvApp{name: "b"}, DefaultConfig())

	seed := tb.call("a", put("x", "v0"))
	reqID := seed.Header[wire.HdrRequestID]
	tb.settle(10)

	checkCollapseInvariant := func() {
		seen := map[string]int{}
		for _, p := range a.Pending() {
			if key := collapseKey(p.Msg); key != "" {
				seen[key]++
			}
		}
		for key, n := range seen {
			if n > 1 {
				t.Errorf("collapse invariant violated: %d queued messages for %s", n, key)
			}
		}
	}

	if err := a.StartPump(context.Background()); err != nil {
		t.Fatal(err)
	}

	const iters = 150
	var repairers, churners sync.WaitGroup
	stop := make(chan struct{})

	// Repairers: concurrent replaces of the same request; every resulting
	// message collapses onto the same key.
	for g := 0; g < 2; g++ {
		repairers.Add(1)
		go func() {
			defer repairers.Done()
			for i := 0; i < iters; i++ {
				_, err := a.ApplyLocal(warp.Action{
					Kind: warp.ReplaceReq, ReqID: reqID,
					NewReq: put("x", "hammer"),
				})
				if err != nil {
					t.Errorf("replace: %v", err)
					return
				}
			}
		}()
	}
	// Flushers: synchronous passes racing the background pump.
	for g := 0; g < 2; g++ {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for {
				select {
				case <-stop:
					return
				default:
					a.Flush()
				}
			}
		}()
	}
	// Outage injector: flip the peer off and on so retry/hold paths run.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				tb.bus.SetOffline("b", i%2 == 0)
				// Pacing, not synchronization: the churner just should not
				// monopolize a core; nothing waits on this timing.
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Administrator: revive held messages, drop the occasional one, and
	// verify the collapse invariant on live snapshots.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				checkCollapseInvariant()
				for _, p := range a.Pending() {
					if p.Held {
						_ = a.Retry(p.MsgID, map[string]string{"X-Retry": "1"})
					} else if i%7 == 0 {
						_ = a.Drop(p.MsgID) // racing Drop is allowed to miss
					}
				}
				a.QueueLen()
			}
		}
	}()

	repairers.Wait()
	close(stop)
	churners.Wait()
	a.StopPump()

	// Quiesce: peer online, one final authoritative repair, drain, verify.
	tb.bus.SetOffline("b", false)
	if _, err := a.ApplyLocal(warp.Action{
		Kind: warp.ReplaceReq, ReqID: reqID, NewReq: put("x", "final"),
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range a.Pending() {
		if p.Held {
			if err := a.Retry(p.MsgID, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	tb.settle(50)
	checkCollapseInvariant()
	if q := a.QueueLen(); q != 0 {
		t.Fatalf("queue not drained: %d left: %+v", q, a.Pending())
	}
	if got := string(tb.call("b", get("x")).Body); got != "final" {
		t.Fatalf("b = %q, want %q (most recent repair wins)", got, "final")
	}
}
