package harness

import (
	"aire/internal/core"
	"aire/internal/orm"
	"aire/internal/web"
	"aire/internal/wire"
)

// KVApp is a minimal mirroring key-value service used by benchmarks and
// demos: POST /put writes a key (and forwards it to every mirror peer),
// GET /get reads one key, GET /sum scans all keys.
type KVApp struct {
	// ServiceName is the transport identity.
	ServiceName string
	// Mirror, when set, receives a copy of every write.
	Mirror string
	// Mirrors also receive a copy of every write (the fan-out topology:
	// one hub propagating to N peers).
	Mirrors []string
}

// mirrors returns every peer that receives write copies.
func (a *KVApp) mirrors() []string {
	if a.Mirror == "" {
		return a.Mirrors
	}
	return append([]string{a.Mirror}, a.Mirrors...)
}

// Name implements core.App.
func (a *KVApp) Name() string { return a.ServiceName }

// Authorize allows any repair: the benchmarks exercise mechanism, not
// policy.
func (a *KVApp) Authorize(ac core.AuthzRequest) bool { return true }

// Register implements core.App.
func (a *KVApp) Register(svc *web.Service) {
	svc.Schema.Register("kv")
	svc.Router.Handle("POST", "/put", func(c *web.Ctx) wire.Response {
		if err := c.DB.Put("kv", c.Form("key"), orm.Fields("val", c.Form("val"))); err != nil {
			return c.Error(500, err.Error())
		}
		for _, m := range a.mirrors() {
			c.Call(m, wire.NewRequest("POST", "/put").
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
