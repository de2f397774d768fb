package harness

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"aire/internal/core"
	"aire/internal/orm"
	"aire/internal/vdb"
	"aire/internal/web"
	"aire/internal/wire"
)

// convApp is a mirroring key-value service for convergence testing: every
// /put is forwarded to the mirror peer (if any); /get and /sum read state.
type convApp struct {
	name   string
	mirror string
}

func (a *convApp) Name() string                        { return a.name }
func (a *convApp) Authorize(ac core.AuthzRequest) bool { return true }

func (a *convApp) Register(svc *web.Service) {
	svc.Schema.Register("kv")
	svc.Router.Handle("POST", "/put", func(c *web.Ctx) wire.Response {
		if err := c.DB.Put("kv", c.Form("key"), orm.Fields("val", c.Form("val"))); err != nil {
			return c.Error(500, err.Error())
		}
		if a.mirror != "" {
			c.Call(a.mirror, wire.NewRequest("POST", "/put").
				WithForm("key", c.Form("key"), "val", c.Form("val")))
		}
		return c.OK("ok")
	})
	svc.Router.Handle("GET", "/get", func(c *web.Ctx) wire.Response {
		o, ok := c.DB.Get("kv", c.Form("key"))
		if !ok {
			return c.Error(404, "missing")
		}
		return c.OK(o.Get("val"))
	})
	svc.Router.Handle("GET", "/sum", func(c *web.Ctx) wire.Response {
		out := ""
		for _, o := range c.DB.List("kv") {
			out += o.ID + "=" + o.Get("val") + ";"
		}
		return c.OK(out)
	})
}

// convOp is one step of a random workload.
type convOp struct {
	kind byte   // 0 = put, 1 = get, 2 = sum
	key  uint8  // key index (small space to force conflicts)
	val  uint16 // value for puts
}

func buildConvWorld(cfg core.Config) (*Testbed, *core.Controller, *core.Controller) {
	tb := NewTestbed()
	a := tb.Add(&convApp{name: "a", mirror: "b"}, cfg)
	b := tb.Add(&convApp{name: "b"}, cfg)
	tb.FreezeTime(1_380_000_000)
	return tb, a, b
}

func runConvOp(tb *Testbed, op convOp) string {
	key := fmt.Sprintf("k%d", op.key%5)
	switch op.kind % 3 {
	case 0:
		resp := tb.Call("a", wire.NewRequest("POST", "/put").
			WithForm("key", key, "val", fmt.Sprint(op.val)))
		return resp.Header[wire.HdrRequestID]
	case 1:
		tb.Call("a", wire.NewRequest("GET", "/get").WithForm("key", key))
	default:
		tb.Call("a", wire.NewRequest("GET", "/sum"))
	}
	return ""
}

// stateOf flattens a service's live kv state.
func stateOf(c *core.Controller) map[string]string {
	out := map[string]string{}
	for _, id := range c.Svc.Store.IDs("kv") {
		v, ok := c.Svc.Store.Get(vdb.Key{Model: "kv", ID: id})
		if ok {
			out[id] = v.Fields["val"]
		}
	}
	return out
}

func equalState(x, y map[string]string) bool {
	if len(x) != len(y) {
		return false
	}
	for k, v := range x {
		if y[k] != v {
			return false
		}
	}
	return true
}

// checkConvergence runs ops in an attacked world (repairing op[attackIdx]
// afterwards) and in a golden world that never executed the attack, then
// compares final states of both services.
func checkConvergence(t *testing.T, ops []convOp, attackIdx int, cfg core.Config) bool {
	t.Helper()
	// Attacked world.
	tb1, a1, b1 := buildConvWorld(cfg)
	var attackID string
	for i, op := range ops {
		id := runConvOp(tb1, op)
		if i == attackIdx {
			attackID = id
		}
	}
	if attackID == "" {
		return true // the chosen attack op was a read; nothing to repair
	}
	if _, err := a1.ApplyLocal(cancelAction(attackID)); err != nil {
		t.Fatalf("repair: %v", err)
	}
	tb1.Settle(50)

	// Golden world: same ops minus the attack.
	tb2, a2, b2 := buildConvWorld(cfg)
	for i, op := range ops {
		if i == attackIdx {
			continue
		}
		runConvOp(tb2, op)
	}

	if !equalState(stateOf(a1), stateOf(a2)) {
		t.Logf("service a diverged: repaired=%v golden=%v ops=%+v attack=%d", stateOf(a1), stateOf(a2), ops, attackIdx)
		return false
	}
	if !equalState(stateOf(b1), stateOf(b2)) {
		t.Logf("service b diverged: repaired=%v golden=%v ops=%+v attack=%d", stateOf(b1), stateOf(b2), ops, attackIdx)
		return false
	}
	// And no repair messages left in flight.
	if tb1.QueuedMessages() != 0 {
		t.Logf("repair did not quiesce: %d messages", tb1.QueuedMessages())
		return false
	}
	return true
}

// TestConvergenceProperty is the §3.3 argument as a property test: for any
// workload of puts/gets/scans over a mirrored pair of services, cancelling
// any single put and letting repair propagate yields exactly the state of a
// timeline in which that put never happened.
func TestConvergenceProperty(t *testing.T) {
	cfg := core.DefaultConfig()
	f := func(raw []uint32, attackSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		ops := make([]convOp, len(raw))
		for i, r := range raw {
			ops[i] = convOp{kind: byte(r), key: uint8(r >> 8), val: uint16(r >> 16)}
		}
		return checkConvergence(t, ops, int(attackSel)%len(ops), cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConvergenceMultipleRepairs cancels several puts in sequence; the
// final state must match a golden run without any of them.
func TestConvergenceMultipleRepairs(t *testing.T) {
	cfg := core.DefaultConfig()
	const seed = 7
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(20)
		ops := make([]convOp, n)
		for i := range ops {
			ops[i] = convOp{kind: byte(rng.Intn(3)), key: uint8(rng.Intn(4)), val: uint16(rng.Intn(1000))}
		}
		cancelSet := map[int]bool{rng.Intn(n): true, rng.Intn(n): true}

		tb1, a1, b1 := buildConvWorld(cfg)
		ids := map[int]string{}
		for i, op := range ops {
			id := runConvOp(tb1, op)
			if cancelSet[i] && id != "" {
				ids[i] = id
			}
		}
		for _, id := range ids {
			if _, err := a1.ApplyLocal(cancelAction(id)); err != nil {
				t.Fatal(err)
			}
			tb1.Settle(50)
		}

		tb2, a2, b2 := buildConvWorld(cfg)
		for i, op := range ops {
			if ids[i] != "" {
				continue
			}
			runConvOp(tb2, op)
		}
		if !equalState(stateOf(a1), stateOf(a2)) || !equalState(stateOf(b1), stateOf(b2)) {
			t.Fatalf("seed %d trial %d diverged: a=%v/%v b=%v/%v", seed, trial, stateOf(a1), stateOf(a2), stateOf(b1), stateOf(b2))
		}
	}
}
