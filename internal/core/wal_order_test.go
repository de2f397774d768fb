package core

import (
	"slices"
	"testing"
	"time"

	"aire/internal/wal"
	"aire/internal/warp"
	"aire/internal/wire"
)

// queueOneOnWAL stands up a controller on a WAL in dir and queues one
// message through a committed batch, the way a repair queues it.
func queueOneOnWAL(t *testing.T, dir string) (*Controller, *wal.Writer, string) {
	t.Helper()
	c := NewController(&kvApp{name: "a"}, newTestbed().bus, DefaultConfig())
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	c.AttachWAL(w)
	c.commit("repair", func() { c.enqueue([]warp.OutMsg{cascadeMsg("b", 1)}, traceCtx{}) })
	return c, w, c.Pending()[0].DeliveryID
}

// queueView is what recovery must reproduce of one queued message.
type queueView struct {
	DeliveryID string
	Held       bool
	Attempts   int
	Gen        uint64
}

func viewQueue(c *Controller) []queueView {
	var out []queueView
	for _, p := range c.Pending() {
		out = append(out, queueView{p.DeliveryID, p.Held, p.Attempts, p.Gen})
	}
	return out
}

// TestWALOrderFollowsServiceLock: a queue mutation outside the pump —
// Drop, or Retry of a parked message — lands in the WAL after a reconcile
// that is still holding its batch open, so replay reproduces the live
// queue. The reconcile is simulated by a commit whose batch holds the
// message's q-set; the mutation, started on another goroutine inside that
// commit, must wait for it instead of writing its own entry first (a Drop written first is undone by the replayed q-set, a Retry
// written first is overwritten by the replayed park).
func TestWALOrderFollowsServiceLock(t *testing.T) {
	cases := []struct {
		name   string
		batch  func(p *PendingMsg) // the reconcile's change to the entry
		mutate func(c *Controller, id string) error
	}{
		{"drop", func(p *PendingMsg) { p.Attempts++ }, func(c *Controller, id string) error { return c.Drop(id) }},
		{"retry parked", func(p *PendingMsg) { p.Held = true }, func(c *Controller, id string) error { return c.Retry(id, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, w, id := queueOneOnWAL(t, dir)

			done := make(chan error, 1)
			c.commit("reconcile", func() {
				c.q.mu.Lock()
				tc.batch(c.q.entries[0])
				c.walEmitQSetLocked(c.q.entries[0])
				c.q.mu.Unlock()
				go func() { done <- tc.mutate(c, id) }()
				select {
				case err := <-done:
					t.Errorf("%s returned (%v) while a reconcile held its batch open", tc.name, err)
					done <- err
				case <-time.After(50 * time.Millisecond):
				}
			})
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			fresh := NewController(&kvApp{name: "a"}, newTestbed().bus, DefaultConfig())
			if _, _, err := wal.Replay(dir, 0, fresh.ApplyWALEntry); err != nil {
				t.Fatal(err)
			}
			live, recovered := viewQueue(c), viewQueue(fresh)
			if !slices.Equal(live, recovered) {
				t.Fatalf("live queue %+v, recovered queue %+v", live, recovered)
			}
		})
	}
}

// TestWALEmitNeedsBatch: with a writer attached, an op emitted while no
// batch is open panics instead of being written out of Svc.Mu order; a
// detached controller emits nothing, batch or not.
func TestWALEmitNeedsBatch(t *testing.T) {
	c := NewController(&kvApp{name: "a"}, newTestbed().bus, DefaultConfig())
	op := &walOp{Kind: "q-del", QDel: "a-dlv-1"}
	emit := func() { c.walEmit(op) }
	emit()
	c.commit("queue", emit)

	w := attachTestWAL(t, c)
	if w.Seq() != 0 || len(c.walst.batch) != 0 {
		t.Fatalf("detached controller wrote %d entries and buffered %d ops", w.Seq(), len(c.walst.batch))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an op emitted with no batch open did not panic")
			}
		}()
		emit()
	}()
	c.commit("queue", emit)
	if w.Seq() != 1 {
		t.Fatalf("one batch wrote %d entries, want 1", w.Seq())
	}
}

// retryOnDeny answers an "unauthorized" notification the way Table 2's
// administrator does, from inside Notify: Retry the held message with fresh
// credentials.
type retryOnDeny struct {
	kvApp
	ctrl *Controller
	errs []error
}

func (a *retryOnDeny) Notify(n Notification) {
	if n.Kind != "unauthorized" {
		return
	}
	for _, p := range a.ctrl.Pending() {
		if p.Held {
			a.errs = append(a.errs, a.ctrl.Retry(p.DeliveryID, map[string]string{"X-Token": "tok-2"}))
		}
	}
}

// TestRetryFromNotifierCompletes: Notify runs outside every lock, so a
// Notifier may call Retry, which takes Svc.Mu, and the retried repair goes
// out on the next pass.
func TestRetryFromNotifierCompletes(t *testing.T) {
	tb := newTestbed()
	app := &retryOnDeny{kvApp: kvApp{name: "a", mirror: "b"}}
	app.ctrl = tb.add(app, DefaultConfig())
	tb.add(&kvApp{name: "b", authz: func(ac AuthzRequest) bool {
		return ac.Carrier.Header["X-Token"] == "tok-2"
	}}, DefaultConfig())
	attack := tb.call("a", put("x", "evil").WithHeader("X-Token", "tok-1"))
	if _, err := app.ctrl.ApplyLocal(warp.Action{Kind: warp.CancelReq, ReqID: attack.Header[wire.HdrRequestID]}); err != nil {
		t.Fatal(err)
	}
	settled := make(chan struct{})
	go func() {
		tb.settle(10) // denied: Notify retries
		tb.settle(10) // the retried message goes out
		close(settled)
	}()
	select {
	case <-settled:
	case <-time.After(10 * time.Second):
		t.Fatal("Retry from inside Notify did not complete")
	}
	if len(app.errs) != 1 || app.errs[0] != nil {
		t.Fatalf("Notify retried with %v, want one successful Retry", app.errs)
	}
	if resp := tb.call("b", get("x")); resp.Status != 404 {
		t.Fatalf("b not repaired after the retry: %d %q", resp.Status, resp.Body)
	}
}
