package askbot

import (
	"strings"
	"testing"

	"aire/internal/apps/dpaste"
	"aire/internal/apps/oauthsvc"
	"aire/internal/core"
	"aire/internal/transport"
	"aire/internal/wire"
)

const (
	oauthAdmin  = "oauth-admin"
	askbotAdmin = "askbot-admin"
)

type tb struct {
	bus  *transport.Bus
	bot  *core.Controller
	auth *core.Controller
}

func newTB(t *testing.T) *tb {
	t.Helper()
	bus := transport.NewBus()
	auth := core.NewController(oauthsvc.New(oauthAdmin), bus, core.DefaultConfig())
	paste := core.NewController(dpaste.New(), bus, core.DefaultConfig())
	bot := core.NewController(New("oauth", "dpaste", askbotAdmin), bus, core.DefaultConfig())
	bus.Register("oauth", auth)
	bus.Register("dpaste", paste)
	bus.Register("askbot", bot)
	if err := oauthsvc.Seed(func(req wire.Request) wire.Response {
		resp, _ := bus.Call("", "oauth", req)
		return resp
	}, 2); err != nil {
		t.Fatal(err)
	}
	return &tb{bus: bus, bot: bot, auth: auth}
}

func (x *tb) call(t *testing.T, svc string, req wire.Request) wire.Response {
	t.Helper()
	resp, err := x.bus.Call("", svc, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// register performs the full OAuth signup for a seeded user.
func (x *tb) register(t *testing.T, user string) string {
	t.Helper()
	auth := x.call(t, "oauth", wire.NewRequest("POST", "/authorize").WithForm(
		"user", user, "password", "pw-"+user, "client", "askbot"))
	if !auth.OK() {
		t.Fatalf("authorize: %s", auth.Body)
	}
	reg := x.call(t, "askbot", wire.NewRequest("POST", "/register").WithForm(
		"name", user, "email", user+"@example.org", "oauth_token", string(auth.Body)))
	if !reg.OK() {
		t.Fatalf("register: %d %s", reg.Status, reg.Body)
	}
	return string(reg.Body)
}

func TestRegisterVerifiesEmailWithProvider(t *testing.T) {
	x := newTB(t)
	sess := x.register(t, "user1")
	if !strings.HasPrefix(sess, "sess-") {
		t.Fatalf("session = %q", sess)
	}
	// A mismatched email is refused (no debug flag set).
	auth := x.call(t, "oauth", wire.NewRequest("POST", "/authorize").WithForm(
		"user", "user2", "password", "pw-user2", "client", "askbot"))
	reg := x.call(t, "askbot", wire.NewRequest("POST", "/register").WithForm(
		"name", "user2", "email", "someoneelse@example.org", "oauth_token", string(auth.Body)))
	if reg.Status != 403 {
		t.Fatalf("fake email registered: %d %s", reg.Status, reg.Body)
	}
	// Missing fields rejected.
	if resp := x.call(t, "askbot", wire.NewRequest("POST", "/register")); resp.Status != 400 {
		t.Fatalf("empty register: %d", resp.Status)
	}
}

func TestAskCrosspostsAndUpdatesProfile(t *testing.T) {
	x := newTB(t)
	sess := x.register(t, "user1")
	ask := x.call(t, "askbot", wire.NewRequest("POST", "/ask").WithForm(
		"session", sess, "title", "How?", "body", "details", "code", "x=1"))
	if !ask.OK() {
		t.Fatalf("ask: %s", ask.Body)
	}
	qid := string(ask.Body)

	q := x.call(t, "askbot", wire.NewRequest("GET", "/question").WithForm("id", qid))
	if !strings.Contains(string(q.Body), "How?") {
		t.Fatalf("question = %q", q.Body)
	}
	// Crosspost landed on dpaste.
	list := x.call(t, "dpaste", wire.NewRequest("GET", "/list"))
	if !strings.Contains(string(list.Body), "paste-") {
		t.Fatalf("dpaste list = %q", list.Body)
	}
	// Profile counters moved; questions page shows the author with rep.
	page := x.call(t, "askbot", wire.NewRequest("GET", "/questions"))
	if !strings.Contains(string(page.Body), "user1 (rep 3)") {
		t.Fatalf("questions page = %q", page.Body)
	}
	// Invalid session rejected.
	if resp := x.call(t, "askbot", wire.NewRequest("POST", "/ask").WithForm(
		"session", "bogus", "title", "t")); resp.Status != 403 {
		t.Fatalf("bogus session: %d", resp.Status)
	}
}

func TestAnswers(t *testing.T) {
	x := newTB(t)
	s1 := x.register(t, "user1")
	s2 := x.register(t, "user2")
	qid := string(x.call(t, "askbot", wire.NewRequest("POST", "/ask").WithForm(
		"session", s1, "title", "Q")).Body)
	if resp := x.call(t, "askbot", wire.NewRequest("POST", "/answer").WithForm(
		"session", s2, "question", qid, "body", "A!")); !resp.OK() {
		t.Fatalf("answer: %s", resp.Body)
	}
	if resp := x.call(t, "askbot", wire.NewRequest("POST", "/answer").WithForm(
		"session", s2, "question", "nope", "body", "A!")); resp.Status != 404 {
		t.Fatalf("answer to missing question: %d", resp.Status)
	}
	view := x.call(t, "askbot", wire.NewRequest("GET", "/question").WithForm("id", qid))
	if !strings.Contains(string(view.Body), "answer by user2: A!") {
		t.Fatalf("question view = %q", view.Body)
	}
}

func TestDailyEmailEffect(t *testing.T) {
	x := newTB(t)
	sess := x.register(t, "user1")
	x.call(t, "askbot", wire.NewRequest("POST", "/ask").WithForm("session", sess, "title", "T1"))

	if resp := x.call(t, "askbot", wire.NewRequest("POST", "/admin/daily_email")); resp.Status != 403 {
		t.Fatalf("email without admin token: %d", resp.Status)
	}
	resp := x.call(t, "askbot", wire.NewRequest("POST", "/admin/daily_email").
		WithHeader("X-Admin-Token", askbotAdmin))
	if !resp.OK() {
		t.Fatalf("email: %s", resp.Body)
	}
	out := x.bot.Svc.Outbox()
	if len(out) != 1 || !strings.Contains(out[0].Payload, "T1") {
		t.Fatalf("outbox = %+v", out)
	}
}

func TestAuthorizeSessionPolicy(t *testing.T) {
	x := newTB(t)
	s1 := x.register(t, "user1")
	s2 := x.register(t, "user2")
	ask := x.call(t, "askbot", wire.NewRequest("POST", "/ask").WithForm("session", s1, "title", "mine"))

	del := wire.NewRequest("POST", "/aire/repair").WithHeader(
		wire.HdrRepair, "delete", wire.HdrRequestID, ask.Header[wire.HdrRequestID])
	// Another user's session cannot repair user1's post.
	if resp := x.call(t, "askbot", del.WithHeader("X-Repair-Session", s2)); resp.Status != 403 {
		t.Fatalf("foreign session repair accepted: %d", resp.Status)
	}
	// The same user's session can.
	if resp := x.call(t, "askbot", del.WithHeader("X-Repair-Session", s1)); !resp.OK() {
		t.Fatalf("own repair rejected: %d %s", resp.Status, resp.Body)
	}
	page := x.call(t, "askbot", wire.NewRequest("GET", "/questions"))
	if strings.Contains(string(page.Body), "mine") {
		t.Fatalf("post not cancelled: %q", page.Body)
	}
}

// escape is appendEscaped into a fresh buffer.
func escape(s string) string { return string(appendEscaped(nil, s)) }

func TestEscape(t *testing.T) {
	if got := escape(`<b>&"x"`); got != "&lt;b&gt;&amp;&quot;x&quot;" {
		t.Fatalf("escape = %q", got)
	}
	if atoi("123") != 123 || atoi("") != 0 || atoi("12x3") != 12 {
		t.Fatal("atoi helper wrong")
	}
}

// escape's output is pinned byte for byte: the rendered pages feed response
// equality during repair, so any drift would make every re-executed page
// read look changed.
func TestEscapeTable(t *testing.T) {
	for in, want := range map[string]string{
		"&":                        "&amp;",
		"<":                        "&lt;",
		">":                        "&gt;",
		`"`:                        "&quot;",
		"'":                        "'",
		"":                         "",
		"How do I frob the widget": "How do I frob the widget",
		`a & b <i>"q"</i> it's`:    "a &amp; b &lt;i&gt;&quot;q&quot;&lt;/i&gt; it's",
	} {
		if got := escape(in); got != want {
			t.Errorf("escape(%q) = %q, want %q", in, got, want)
		}
	}
}

// The escaper appends straight into the page buffer: with room in the
// buffer it allocates nothing, with or without specials to escape.
func TestEscapeAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	for _, in := range []string{"How do I frob the widget (alice #3)?", `<b>"Q&A"</b>`} {
		if n := testing.AllocsPerRun(100, func() { buf = appendEscaped(buf[:0], in) }); n != 0 {
			t.Errorf("appendEscaped(%q) allocated %.0f times per call, want 0", in, n)
		}
	}
}
