package harness

import (
	"fmt"

	"aire/internal/apps/askbot"
	"aire/internal/apps/dpaste"
	"aire/internal/apps/oauthsvc"
	"aire/internal/core"
	"aire/internal/transport"
	"aire/internal/wire"
)

// AskbotCaller abstracts "an Askbot deployment you can send requests to" —
// either Aire-enabled (Controller) or the bare baseline.
type AskbotCaller interface {
	HandleWire(from string, req wire.Request) wire.Response
}

// AskbotBench is a single-service Askbot deployment prepared for the
// Table 4 overhead workloads (read-heavy question listing and write-heavy
// question creation), with a stub OAuth/Dpaste peer so handler code paths
// match the full scenario.
type AskbotBench struct {
	Handler AskbotCaller
	// Ctrl is non-nil for the Aire-enabled variant.
	Ctrl *core.Controller
	// Session is a pre-registered user session for posting.
	Session string
	seq     int
}

// NewAskbotBench builds the deployment. withAire selects the Aire-enabled
// runtime or the bare baseline.
func NewAskbotBench(withAire bool) (*AskbotBench, error) {
	bus := transport.NewBus()
	cfg := core.DefaultConfig()

	oauthApp := oauthsvc.New(OAuthAdminToken)
	pasteApp := dpaste.New()
	botApp := askbot.New("oauth", "dpaste", AskbotAdminToken)

	b := &AskbotBench{}
	if withAire {
		for _, app := range []core.App{oauthApp, pasteApp} {
			bus.Register(app.Name(), core.NewController(app, bus, cfg))
		}
		b.Ctrl = core.NewController(botApp, bus, cfg)
		bus.Register("askbot", b.Ctrl)
		b.Handler = b.Ctrl
	} else {
		for _, app := range []core.App{oauthApp, pasteApp} {
			bus.Register(app.Name(), NewBareRunner(app, bus))
		}
		runner := NewBareRunner(botApp, bus)
		bus.Register("askbot", runner)
		b.Handler = runner
	}

	// One user, registered through the real OAuth flow.
	if resp := b.callSvc(bus, "oauth", wire.NewRequest("POST", "/signup").
		WithForm("user", "bench", "password", "pw", "email", "bench@example.org")); !resp.OK() {
		return nil, fmt.Errorf("seed signup: %s", resp.Body)
	}
	auth := b.callSvc(bus, "oauth", wire.NewRequest("POST", "/authorize").
		WithForm("user", "bench", "password", "pw", "client", "askbot"))
	if !auth.OK() {
		return nil, fmt.Errorf("seed authorize: %s", auth.Body)
	}
	reg := b.Handler.HandleWire("", wire.NewRequest("POST", "/register").
		WithForm("name", "bench", "email", "bench@example.org", "oauth_token", string(auth.Body)))
	if !reg.OK() {
		return nil, fmt.Errorf("seed register: %s", reg.Body)
	}
	b.Session = string(reg.Body)
	return b, nil
}

func (b *AskbotBench) callSvc(bus *transport.Bus, svc string, req wire.Request) wire.Response {
	resp, err := bus.Call("", svc, req)
	if err != nil {
		return wire.NewResponse(wire.StatusTimeout, err.Error())
	}
	return resp
}

// Write posts one question (the write-heavy workload's unit of work).
func (b *AskbotBench) Write() error {
	b.seq++
	resp := b.Handler.HandleWire("", wire.NewRequest("POST", "/ask").WithForm(
		"session", b.Session,
		"title", fmt.Sprintf("bench question %d", b.seq),
		"body", "lorem ipsum dolor sit amet, consectetur adipiscing elit",
	))
	if !resp.OK() {
		return fmt.Errorf("write: %d %s", resp.Status, resp.Body)
	}
	return nil
}

// Read lists all questions (the read-heavy workload's unit of work).
func (b *AskbotBench) Read() error {
	resp := b.Handler.HandleWire("", wire.NewRequest("GET", "/questions"))
	if !resp.OK() {
		return fmt.Errorf("read: %d %s", resp.Status, resp.Body)
	}
	return nil
}
