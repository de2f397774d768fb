package core

import (
	"fmt"
	"strings"

	"aire/internal/orm"
	"aire/internal/transport"
	"aire/internal/web"
	"aire/internal/wire"
)

// kvApp is a small versioned key-value web service used throughout the core
// tests. Its routes:
//
//	POST /put?key&val[&user]  — write a key; mirrors the write to the mirror
//	                            peer (if configured) unless val begins "local:"
//	GET  /get?key             — read a key
//	GET  /sum                 — list-scan all keys, concatenating values
//	POST /fetch?key           — call the upstream peer's /get and cache the
//	                            result locally (the reader side of Figure 2)
//	POST /email               — external effect summarizing all keys
type kvApp struct {
	name string
	// mirror, when set, receives a copy of every /put.
	mirror string
	// upstream, when set, is where /fetch reads from.
	upstream string
	// authz, when set, overrides the default allow-all policy.
	authz func(ac AuthzRequest) bool
	// notes collects notifications (Notifier implementation).
	notes []Notification
}

func (a *kvApp) Name() string { return a.name }

func (a *kvApp) Authorize(ac AuthzRequest) bool {
	if a.authz != nil {
		return a.authz(ac)
	}
	return true
}

func (a *kvApp) Notify(n Notification) { a.notes = append(a.notes, n) }

func (a *kvApp) Register(svc *web.Service) {
	svc.Schema.Register("kv")
	svc.Schema.Register("cache")

	svc.Router.Handle("POST", "/put", func(c *web.Ctx) wire.Response {
		key, val := c.Form("key"), c.Form("val")
		if key == "" {
			return c.Error(400, "missing key")
		}
		if err := c.DB.Put("kv", key, orm.Fields("val", val, "writer", c.Form("user"))); err != nil {
			return c.Error(500, err.Error())
		}
		if a.mirror != "" && !strings.HasPrefix(val, "local:") {
			c.Call(a.mirror, wire.NewRequest("POST", "/put").WithForm("key", key, "val", val, "user", c.Form("user")))
		}
		return c.OK("stored " + key)
	})

	svc.Router.Handle("GET", "/get", func(c *web.Ctx) wire.Response {
		o, ok := c.DB.Get("kv", c.Form("key"))
		if !ok {
			return c.Error(404, "no such key")
		}
		return c.OK(o.Get("val"))
	})

	svc.Router.Handle("GET", "/sum", func(c *web.Ctx) wire.Response {
		var b strings.Builder
		for _, o := range c.DB.List("kv") {
			fmt.Fprintf(&b, "%s=%s;", o.ID, o.Get("val"))
		}
		return c.OK(b.String())
	})

	svc.Router.Handle("POST", "/fetch", func(c *web.Ctx) wire.Response {
		key := c.Form("key")
		resp := c.Call(a.upstream, wire.NewRequest("GET", "/get").WithForm("key", key))
		if !resp.OK() {
			return c.Error(502, "upstream: "+string(resp.Body))
		}
		if err := c.DB.Put("cache", key, orm.Fields("val", string(resp.Body))); err != nil {
			return c.Error(500, err.Error())
		}
		return c.OK("cached " + string(resp.Body))
	})

	svc.Router.Handle("POST", "/email", func(c *web.Ctx) wire.Response {
		var b strings.Builder
		for _, o := range c.DB.List("kv") {
			fmt.Fprintf(&b, "%s=%s;", o.ID, o.Get("val"))
		}
		c.Effect("email", "daily summary: "+b.String())
		return c.OK("sent")
	})
}

// testbed wires controllers onto a bus and provides helpers.
type testbed struct {
	bus   *transport.Bus
	ctrls map[string]*Controller
	order []*Controller // insertion order, for settle
}

func newTestbed() *testbed {
	return &testbed{bus: transport.NewBus(), ctrls: map[string]*Controller{}}
}

func (tb *testbed) add(app App, cfg Config) *Controller {
	c := NewController(app, tb.bus, cfg)
	tb.ctrls[app.Name()] = c
	tb.order = append(tb.order, c)
	tb.bus.Register(app.Name(), c)
	return c
}

// settle runs Settle over every controller in insertion order.
func (tb *testbed) settle(maxRounds int) { Settle(maxRounds, tb.order...) }

// call sends an external-client request (no Aire headers, unauthenticated).
func (tb *testbed) call(svc string, req wire.Request) wire.Response {
	resp, err := tb.bus.Call("", svc, req)
	if err != nil {
		return wire.NewResponse(wire.StatusTimeout, err.Error())
	}
	return resp
}

func put(key, val string) wire.Request {
	return wire.NewRequest("POST", "/put").WithForm("key", key, "val", val)
}

func get(key string) wire.Request {
	return wire.NewRequest("GET", "/get").WithForm("key", key)
}
