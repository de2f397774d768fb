// Package harness builds multi-service Aire testbeds and drives the
// paper's experiments: the four intrusion scenarios of §7.1, the partial
// repair runs of §7.2, and the workloads behind Tables 4 and 5.
package harness

import (
	"fmt"

	"aire/internal/core"
	"aire/internal/transport"
	"aire/internal/web"
	"aire/internal/wire"
)

// Testbed is a set of Aire-enabled services on one in-memory bus.
type Testbed struct {
	Bus   *transport.Bus
	Ctrls map[string]*core.Controller
	order []string
}

// NewTestbed returns an empty testbed.
func NewTestbed() *Testbed {
	return &Testbed{Bus: transport.NewBus(), Ctrls: map[string]*core.Controller{}}
}

// Add stands up an Aire-enabled service for the application.
func (tb *Testbed) Add(app core.App, cfg core.Config) *core.Controller {
	c := core.NewController(app, tb.Bus, cfg)
	tb.Ctrls[app.Name()] = c
	tb.Bus.Register(app.Name(), c)
	tb.order = append(tb.order, app.Name())
	return c
}

// Call sends an external-client request (no Aire headers, unauthenticated
// — a browser). A transport failure surfaces as a timeout response.
func (tb *Testbed) Call(svc string, req wire.Request) wire.Response {
	resp, err := tb.Bus.Call("", svc, req)
	if err != nil {
		return wire.NewResponse(wire.StatusTimeout, err.Error())
	}
	return resp
}

// MustCall is Call but panics on a non-2xx response; used for scenario
// setup steps that must succeed.
func (tb *Testbed) MustCall(svc string, req wire.Request) wire.Response {
	resp := tb.Call(svc, req)
	if !resp.OK() {
		panic(fmt.Sprintf("harness: %s %s on %s failed: %d %s", req.Method, req.Path, svc, resp.Status, resp.Body))
	}
	return resp
}

// controllers lists the services' controllers in the order they were added.
func (tb *Testbed) controllers() []*core.Controller {
	ctrls := make([]*core.Controller, len(tb.order))
	for i, name := range tb.order {
		ctrls[i] = tb.Ctrls[name]
	}
	return ctrls
}

// Settle runs core.Settle over every service in the order they were added;
// it returns the number of rounds that made progress.
func (tb *Testbed) Settle(maxRounds int) int { return core.Settle(maxRounds, tb.controllers()...) }

// SetOffline toggles a service's availability (§7.2 experiments).
func (tb *Testbed) SetOffline(svc string, off bool) { tb.Bus.SetOffline(svc, off) }

// QueuedMessages sums pending repair messages across all services.
func (tb *Testbed) QueuedMessages() int {
	n := 0
	for _, c := range tb.Ctrls {
		n += c.QueueLen()
	}
	return n
}

// Service returns the underlying web service runtime of a controller.
func (tb *Testbed) Service(name string) *web.Service { return tb.Ctrls[name].Svc }

// FreezeTime pins every service's application-visible clock to a constant,
// making scenario traces deterministic.
func (tb *Testbed) FreezeTime(unix int64) {
	for _, c := range tb.Ctrls {
		c.Svc.TimeSource = func() int64 { return unix }
	}
}
