package web

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"aire/internal/repairlog"
	"aire/internal/wire"
)

func newExec(svc *Service, req wire.Request, mode Mode, rec *repairlog.Record) *Exec {
	if rec == nil {
		rec = &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next(), Req: req}
	} else {
		rec.Req = req
	}
	return &Exec{Svc: svc, Rec: rec, Mode: mode}
}

func TestRouterDispatchAnd404(t *testing.T) {
	svc := NewService("t")
	svc.Schema.Register("kv")
	svc.Router.Handle("GET", "/hello", func(c *Ctx) wire.Response { return c.OK("hi " + c.Form("name")) })

	e := newExec(svc, wire.NewRequest("GET", "/hello").WithForm("name", "bob"), Normal, nil)
	resp := e.Run()
	if string(resp.Body) != "hi bob" {
		t.Fatalf("resp = %+v", resp)
	}

	e2 := newExec(svc, wire.NewRequest("POST", "/hello"), Normal, nil) // wrong method
	if resp := e2.Run(); resp.Status != 404 {
		t.Fatalf("method mismatch should 404, got %d", resp.Status)
	}
	e3 := newExec(svc, wire.NewRequest("GET", "/nope"), Normal, nil)
	if resp := e3.Run(); resp.Status != 404 {
		t.Fatalf("unknown path should 404, got %d", resp.Status)
	}
}

func TestHandlerPanicBecomes500(t *testing.T) {
	svc := NewService("t")
	svc.Router.Handle("GET", "/boom", func(c *Ctx) wire.Response { panic("kaboom") })
	resp := newExec(svc, wire.NewRequest("GET", "/boom"), Normal, nil).Run()
	if resp.Status != 500 || !strings.Contains(string(resp.Body), "kaboom") {
		t.Fatalf("panic response = %+v", resp)
	}
}

func TestNondetRecordReplay(t *testing.T) {
	svc := NewService("t")
	tick := int64(100)
	svc.TimeSource = func() int64 { tick++; return tick }
	svc.Router.Handle("GET", "/t", func(c *Ctx) wire.Response {
		return c.OK(fmt.Sprintf("%d %d %d", c.Now(), c.Rand(), c.Now()))
	})

	rec := &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next()}
	e := newExec(svc, wire.NewRequest("GET", "/t"), Normal, rec)
	first := string(e.Run().Body)
	if len(rec.Nondet) != 3 {
		t.Fatalf("nondet entries = %d, want 3", len(rec.Nondet))
	}

	// Replay must reproduce identical values even though the sources moved.
	replay := &Exec{Svc: svc, Rec: rec, Mode: Replay}
	second := string(replay.Run().Body)
	if first != second {
		t.Fatalf("replay diverged: %q vs %q", first, second)
	}

	// Replay of an execution that consumes MORE nondeterminism than was
	// recorded falls back to fresh values (and re-records).
	rec.Nondet = rec.Nondet[:1]
	replay2 := &Exec{Svc: svc, Rec: rec, Mode: Replay}
	third := string(replay2.Run().Body)
	if third == first {
		t.Fatal("extra nondet should have drawn fresh values")
	}
	if len(rec.Nondet) != 3 {
		t.Fatalf("re-recorded nondet = %d", len(rec.Nondet))
	}
}

func TestNewIDStableAcrossReplay(t *testing.T) {
	svc := NewService("t")
	svc.Schema.Register("kv")
	svc.Router.Handle("POST", "/mk", func(c *Ctx) wire.Response {
		return c.OK(c.NewID() + " " + c.NewID())
	})
	rec := &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next()}
	first := string(newExec(svc, wire.NewRequest("POST", "/mk"), Normal, rec).Run().Body)
	second := string((&Exec{Svc: svc, Rec: rec, Mode: Replay, Gen: 1}).Run().Body)
	if first != second {
		t.Fatalf("stable IDs must not change across replay: %q vs %q", first, second)
	}
}

func TestNewVersionIDVariesByGeneration(t *testing.T) {
	svc := NewService("t")
	svc.Router.Handle("POST", "/mk", func(c *Ctx) wire.Response { return c.OK(c.NewVersionID()) })
	rec := &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next()}
	gen0 := string(newExec(svc, wire.NewRequest("POST", "/mk"), Normal, rec).Run().Body)
	gen1 := string((&Exec{Svc: svc, Rec: rec, Mode: Replay, Gen: 1}).Run().Body)
	gen1again := string((&Exec{Svc: svc, Rec: rec, Mode: Replay, Gen: 1}).Run().Body)
	if gen0 == gen1 {
		t.Fatal("version IDs must differ across repair generations (Figure 3)")
	}
	if gen1 != gen1again {
		t.Fatal("version IDs must be deterministic within a generation")
	}
}

func TestOutboundInterception(t *testing.T) {
	svc := NewService("t")
	svc.Router.Handle("POST", "/go", func(c *Ctx) wire.Response {
		r1 := c.Call("peer", wire.NewRequest("POST", "/a"))
		r2 := c.Call("other", wire.NewRequest("POST", "/b"))
		return c.OK(string(r1.Body) + "+" + string(r2.Body))
	})
	rec := &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next()}
	e := newExec(svc, wire.NewRequest("POST", "/go"), Normal, rec)
	e.Outbound = func(seq int, target string, req wire.Request) (wire.Response, repairlog.Call) {
		return wire.NewResponse(200, fmt.Sprintf("%s#%d", target, seq)),
			repairlog.Call{Target: target, Req: req}
	}
	resp := e.Run()
	if string(resp.Body) != "peer#0+other#1" {
		t.Fatalf("resp = %q", resp.Body)
	}
	if len(rec.Calls) != 2 || rec.Calls[0].Seq != 0 || rec.Calls[1].Seq != 1 || rec.Calls[1].Target != "other" {
		t.Fatalf("calls = %+v", rec.Calls)
	}
}

func TestCallWithoutOutboundPanicsTo500(t *testing.T) {
	svc := NewService("t")
	svc.Router.Handle("POST", "/go", func(c *Ctx) wire.Response {
		c.Call("peer", wire.NewRequest("POST", "/a"))
		return c.OK("unreachable")
	})
	resp := newExec(svc, wire.NewRequest("POST", "/go"), Normal, nil).Run()
	if resp.Status != 500 {
		t.Fatalf("expected 500, got %d", resp.Status)
	}
}

func TestEffectsRecordedNotPerformed(t *testing.T) {
	svc := NewService("t")
	svc.Router.Handle("POST", "/fx", func(c *Ctx) wire.Response {
		c.Effect("email", "hello")
		c.Effect("sms", "world")
		return c.OK("ok")
	})
	rec := &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next()}
	newExec(svc, wire.NewRequest("POST", "/fx"), Normal, rec).Run()
	if len(rec.Effects) != 2 || rec.Effects[1].Kind != "sms" {
		t.Fatalf("effects = %+v", rec.Effects)
	}
	if len(svc.Outbox()) != 0 {
		t.Fatal("Exec must not perform effects itself (the controller commits them)")
	}
	svc.PerformEffect(rec.Effects[0])
	if got := svc.Outbox(); len(got) != 1 || got[0].Payload != "hello" {
		t.Fatalf("outbox = %+v", got)
	}
}

func TestDepTrackingThroughCtxDB(t *testing.T) {
	svc := NewService("t")
	svc.Schema.Register("kv")
	svc.Router.Handle("POST", "/w", func(c *Ctx) wire.Response {
		c.DB.Put("kv", "a", map[string]string{"v": "1"})
		return c.OK("ok")
	})
	svc.Router.Handle("GET", "/r", func(c *Ctx) wire.Response {
		c.DB.Get("kv", "a")
		c.DB.List("kv")
		return c.OK("ok")
	})
	w := &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next()}
	newExec(svc, wire.NewRequest("POST", "/w"), Normal, w).Run()
	r := &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next()}
	newExec(svc, wire.NewRequest("GET", "/r"), Normal, r).Run()
	if len(w.Writes) != 1 || len(r.Reads) != 1 || len(r.Scans) != 1 {
		t.Fatalf("deps: writes=%d reads=%d scans=%d", len(w.Writes), len(r.Reads), len(r.Scans))
	}
}

func TestBareModeSkipsInterposition(t *testing.T) {
	svc := NewService("t")
	svc.Schema.Register("kv")
	svc.Router.Handle("POST", "/w", func(c *Ctx) wire.Response {
		c.DB.Put("kv", "a", map[string]string{"v": "1"})
		c.Now()
		return c.OK("ok")
	})
	rec := &repairlog.Record{ID: svc.IDs.Request(), TS: svc.Clock.Next()}
	e := newExec(svc, wire.NewRequest("POST", "/w"), Normal, rec)
	e.Bare = true
	if resp := e.Run(); !resp.OK() {
		t.Fatalf("bare run failed: %+v", resp)
	}
	if len(rec.Writes) != 0 || len(rec.Nondet) != 0 {
		t.Fatalf("bare mode recorded deps: %+v %+v", rec.Writes, rec.Nondet)
	}
}

func TestCtxAccessors(t *testing.T) {
	svc := NewService("t")
	svc.Router.Handle("POST", "/c", func(c *Ctx) wire.Response {
		return c.OK(fmt.Sprintf("%s|%s|%d|%s|%s", c.ReqID(), c.From(), c.TS(), c.Header("H"), c.Form("f")))
	})
	rec := &repairlog.Record{ID: "t-req-77", TS: 12345, From: "peer"}
	resp := newExec(svc, wire.NewRequest("POST", "/c").WithForm("f", "fv").WithHeader("H", "hv"), Normal, rec).Run()
	if string(resp.Body) != "t-req-77|peer|12345|hv|fv" {
		t.Fatalf("ctx accessors = %q", resp.Body)
	}
}

// readsService answers GET /read by reading each comma-separated key in
// the form's "keys" from model kv.
func readsService(name string) *Service {
	svc := NewService(name)
	svc.Schema.Register("kv")
	svc.Router.Handle("GET", "/read", func(c *Ctx) wire.Response {
		if keys := c.Form("keys"); keys != "" {
			for _, k := range strings.Split(keys, ",") {
				c.DB.Get("kv", k)
			}
		}
		return c.OK("")
	})
	return svc
}

// readKeys runs one /read of keys on svc under its lock and returns the
// produced record.
func readKeys(svc *Service, keys ...string) *repairlog.Record {
	svc.Mu.Lock()
	defer svc.Mu.Unlock()
	e := newExec(svc, wire.NewRequest("GET", "/read").WithForm("keys", strings.Join(keys, ",")), Normal, nil)
	e.Run()
	return e.Rec
}

func checkReads(t *testing.T, rec *repairlog.Record, keys ...string) {
	t.Helper()
	if len(keys) == 0 {
		if rec.Reads != nil {
			t.Fatalf("%s: Reads = %v, want nil", rec.ID, rec.Reads)
		}
		return
	}
	if len(rec.Reads) != len(keys) || cap(rec.Reads) != len(keys) {
		t.Fatalf("%s: Reads len %d cap %d, want exactly %d", rec.ID, len(rec.Reads), cap(rec.Reads), len(keys))
	}
	for i, k := range keys {
		if d := rec.Reads[i]; d.Key.Model != "kv" || d.Key.ID != k {
			t.Fatalf("%s: Reads[%d] = %+v, want kv/%s", rec.ID, i, d, k)
		}
	}
}

// TestReadsOwnedByTheirRecord: read dependencies collect in a pooled
// scratch, and every record keeps its own copy naming each key once, in
// first-read order, across consecutive requests (which reuse one scratch,
// so a key an earlier request read is recorded again) and concurrent
// requests on two services (which draw different ones).
func TestReadsOwnedByTheirRecord(t *testing.T) {
	svc := readsService("t")
	r1 := readKeys(svc, "a", "b", "a", "c", "b")
	r2 := readKeys(svc, "d", "a", "d")
	r3 := readKeys(svc)
	r4 := readKeys(svc, "e", "f")
	checkReads(t, r1, "a", "b", "c")
	checkReads(t, r2, "d", "a")
	checkReads(t, r3)
	checkReads(t, r4, "e", "f")

	const n = 200
	svcs := []*Service{readsService("x"), readsService("y")}
	recs := make([][]*repairlog.Record, len(svcs))
	var wg sync.WaitGroup
	for s, svc := range svcs {
		wg.Add(1)
		go func(s int, svc *Service) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("%s%d", svc.Name, i)
				recs[s] = append(recs[s], readKeys(svc, key, svc.Name, key))
			}
		}(s, svc)
	}
	wg.Wait()
	for s, svc := range svcs {
		for i, rec := range recs[s] {
			checkReads(t, rec, fmt.Sprintf("%s%d", svc.Name, i), svc.Name)
		}
	}
}
