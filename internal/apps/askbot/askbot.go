// Package askbot implements the Askbot-like question-and-answer forum of
// the paper's main attack scenario (§7.1, Figure 4).
//
// Users sign up through an external OAuth provider: registration verifies
// the claimed email address with the provider (requests (3) and (4) of
// Figure 4). Questions containing code snippets are crossposted to a
// Dpaste-like pastebin (request (6)). A daily summary email — an external
// effect Aire cannot undo, only compensate — reports the day's questions.
package askbot

import (
	"fmt"
	"strings"

	"aire/internal/core"
	"aire/internal/orm"
	"aire/internal/warp"
	"aire/internal/web"
	"aire/internal/wire"
)

// Model names. Like the real Askbot, a post touches several tables:
// the question itself, an immutable-ish revision row, an activity-feed
// entry, and the author's profile counters.
const (
	ModelUser     = "user"     // id = username; fields: email, oauth_token, posts, reputation
	ModelSession  = "session"  // id = session token; fields: user
	ModelQuestion = "question" // id; fields: title, body, author, paste_id, rev
	ModelAnswer   = "answer"   // id; fields: question, body, author
	ModelRevision = "revision" // id; fields: post, body, author, at
	ModelActivity = "activity" // id; fields: kind, actor, object, at
	ModelVote     = "vote"     // id = voter|question; fields: voter, question, dir
	ModelTag      = "tag"      // id = tag name; fields: count
)

// App is the forum application.
type App struct {
	// ServiceName is the transport identity (default "askbot").
	ServiceName string
	// OAuthService is the identity provider's service name.
	OAuthService string
	// PasteService is the pastebin's service name.
	PasteService string
	// AdminToken authorizes admin endpoints.
	AdminToken string
}

// New returns an Askbot app wired to the given provider and pastebin.
func New(oauthService, pasteService, adminToken string) *App {
	return &App{
		ServiceName:  "askbot",
		OAuthService: oauthService,
		PasteService: pasteService,
		AdminToken:   adminToken,
	}
}

// Name implements core.App.
func (a *App) Name() string { return a.ServiceName }

// Register installs models and routes.
func (a *App) Register(svc *web.Service) {
	svc.Schema.Register(ModelUser)
	svc.Schema.Register(ModelSession)
	svc.Schema.Register(ModelQuestion)
	svc.Schema.Register(ModelAnswer)
	svc.Schema.Register(ModelRevision)
	svc.Schema.Register(ModelActivity)
	svc.Schema.Register(ModelVote)
	svc.Schema.Register(ModelTag)

	// POST /register creates a local account from an OAuth identity
	// (request (3) of Figure 4); the email claim is verified with the
	// provider (request (4)). On success a session token is returned.
	svc.Router.Handle("POST", "/register", func(c *web.Ctx) wire.Response {
		name, email, tok := c.Form("name"), c.Form("email"), c.Form("oauth_token")
		if name == "" || email == "" || tok == "" {
			return c.Error(400, "name, email, oauth_token required")
		}
		verify := c.Call(a.OAuthService, wire.NewRequest("POST", "/verify_email").
			WithForm("email", email, "token", tok))
		if !verify.OK() {
			return c.Error(403, "email verification failed: "+string(verify.Body))
		}
		if err := c.DB.Put(ModelUser, name, orm.Fields(
			"email", email, "oauth_token", tok, "posts", "0", "reputation", "1")); err != nil {
			return c.Error(500, err.Error())
		}
		sess := "sess-" + c.NewID()
		if err := c.DB.Put(ModelSession, sess, orm.Fields("user", name)); err != nil {
			return c.Error(500, err.Error())
		}
		return c.OK(sess)
	})

	// POST /ask posts a question (request (5)); code snippets are
	// crossposted to the pastebin (request (6)).
	svc.Router.Handle("POST", "/ask", func(c *web.Ctx) wire.Response {
		user, ok := a.sessionUser(c)
		if !ok {
			return c.Error(403, "invalid session")
		}
		title, body, code := c.Form("title"), c.Form("body"), c.Form("code")
		if title == "" {
			return c.Error(400, "title required")
		}
		pasteID := ""
		if code != "" {
			paste := c.Call(a.PasteService, wire.NewRequest("POST", "/paste").
				WithForm("code", code, "author", user))
			if paste.OK() {
				pasteID = string(paste.Body)
			}
		}
		qid := "q-" + c.NewID()
		if err := c.DB.Put(ModelQuestion, qid, orm.Fields(
			"title", title, "body", body, "author", user, "paste_id", pasteID, "rev", "1")); err != nil {
			return c.Error(500, err.Error())
		}
		// Like the real Askbot, a post also records a revision, an
		// activity-feed entry, and bumps the author's profile counters.
		now := fmt.Sprint(c.Now())
		if err := c.DB.Put(ModelRevision, "rev-"+c.NewID(), orm.Fields(
			"post", qid, "body", body, "author", user, "at", now)); err != nil {
			return c.Error(500, err.Error())
		}
		if err := c.DB.Put(ModelActivity, "act-"+c.NewID(), orm.Fields(
			"kind", "ask", "actor", user, "object", qid, "at", now)); err != nil {
			return c.Error(500, err.Error())
		}
		if _, err := c.DB.Update(ModelUser, user, func(f map[string]string) {
			f["posts"] = fmt.Sprint(atoi(f["posts"]) + 1)
			f["reputation"] = fmt.Sprint(atoi(f["reputation"]) + 2)
		}); err != nil {
			return c.Error(500, err.Error())
		}
		// Tag counters (comma-separated "tags" form value).
		for _, tag := range strings.Split(c.Form("tags"), ",") {
			tag = strings.TrimSpace(tag)
			if tag == "" {
				continue
			}
			n := 0
			if o, ok := c.DB.Get(ModelTag, tag); ok {
				n = o.Int("count")
			}
			if err := c.DB.Put(ModelTag, tag, orm.Fields("count", fmt.Sprint(n+1))); err != nil {
				return c.Error(500, err.Error())
			}
		}
		return c.OK(qid)
	})

	// POST /vote casts (or changes) a user's vote on a question and adjusts
	// the author's reputation — the "ratings" state the paper lists among
	// what Aire must repair on Askbot.
	svc.Router.Handle("POST", "/vote", func(c *web.Ctx) wire.Response {
		voter, ok := a.sessionUser(c)
		if !ok {
			return c.Error(403, "invalid session")
		}
		qid, dir := c.Form("question"), c.Form("dir")
		if dir != "up" && dir != "down" {
			return c.Error(400, "dir must be up or down")
		}
		q, ok := c.DB.Get(ModelQuestion, qid)
		if !ok {
			return c.Error(404, "no such question")
		}
		if q.Get("author") == voter {
			return c.Error(400, "cannot vote on your own question")
		}
		voteID := voter + "|" + qid
		prev := ""
		if v, ok := c.DB.Get(ModelVote, voteID); ok {
			prev = v.Get("dir")
		}
		if prev == dir {
			return c.OK("unchanged")
		}
		if err := c.DB.Put(ModelVote, voteID, orm.Fields("voter", voter, "question", qid, "dir", dir)); err != nil {
			return c.Error(500, err.Error())
		}
		delta := 0
		switch {
		case prev == "" && dir == "up":
			delta = 5
		case prev == "" && dir == "down":
			delta = -2
		case prev == "up" && dir == "down":
			delta = -7
		case prev == "down" && dir == "up":
			delta = 7
		}
		if _, err := c.DB.Update(ModelUser, q.Get("author"), func(f map[string]string) {
			f["reputation"] = fmt.Sprint(atoi(f["reputation"]) + delta)
		}); err != nil {
			return c.Error(500, err.Error())
		}
		return c.OK("voted " + dir)
	})

	// GET /tags lists tag usage counts.
	svc.Router.Handle("GET", "/tags", func(c *web.Ctx) wire.Response {
		var b strings.Builder
		for _, tg := range c.DB.List(ModelTag) {
			fmt.Fprintf(&b, "%s=%s\n", tg.ID, tg.Get("count"))
		}
		return c.OK(b.String())
	})

	// POST /answer posts an answer to a question.
	svc.Router.Handle("POST", "/answer", func(c *web.Ctx) wire.Response {
		user, ok := a.sessionUser(c)
		if !ok {
			return c.Error(403, "invalid session")
		}
		qid := c.Form("question")
		if _, ok := c.DB.Get(ModelQuestion, qid); !ok {
			return c.Error(404, "no such question")
		}
		aid := "a-" + c.NewID()
		if err := c.DB.Put(ModelAnswer, aid, orm.Fields(
			"question", qid, "body", c.Form("body"), "author", user)); err != nil {
			return c.Error(500, err.Error())
		}
		return c.OK(aid)
	})

	// GET /questions renders the question-list page (the read-heavy
	// workload of Table 4). Like the real page, it joins each question with
	// its author's profile and renders markup.
	svc.Router.Handle("GET", "/questions", func(c *web.Ctx) wire.Response {
		var b strings.Builder
		b.WriteString("<html><body><h1>All Questions</h1><ul>\n")
		for _, q := range c.DB.List(ModelQuestion) {
			author := q.Get("author")
			rep := "?"
			if u, ok := c.DB.Get(ModelUser, author); ok {
				rep = u.Get("reputation")
			}
			fmt.Fprintf(&b, "<li id=%q><a>%s</a> <span class=author>%s (rep %s)</span>",
				q.ID, escape(q.Get("title")), escape(author), rep)
			if p := q.Get("paste_id"); p != "" {
				fmt.Fprintf(&b, " <a class=code href=\"dpaste://%s\">code</a>", p)
			}
			b.WriteString("</li>\n")
		}
		b.WriteString("</ul></body></html>\n")
		return c.OK(b.String())
	})

	// GET /question shows one question with its answers.
	svc.Router.Handle("GET", "/question", func(c *web.Ctx) wire.Response {
		q, ok := c.DB.Get(ModelQuestion, c.Form("id"))
		if !ok {
			return c.Error(404, "no such question")
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%q by %s\n%s\n", q.Get("title"), q.Get("author"), q.Get("body"))
		for _, ans := range c.DB.Select(ModelAnswer, func(o orm.Obj) bool {
			return o.Get("question") == c.Form("id")
		}) {
			fmt.Fprintf(&b, "answer by %s: %s\n", ans.Get("author"), ans.Get("body"))
		}
		return c.OK(b.String())
	})

	// POST /admin/daily_email sends the daily activity summary — an
	// external effect; under repair Aire compensates by notifying the
	// administrator of the corrected contents (§7.1).
	svc.Router.Handle("POST", "/admin/daily_email", func(c *web.Ctx) wire.Response {
		if c.Header("X-Admin-Token") != a.AdminToken {
			return c.Error(403, "admin token required")
		}
		var b strings.Builder
		for _, q := range c.DB.List(ModelQuestion) {
			fmt.Fprintf(&b, "%s by %s; ", q.Get("title"), q.Get("author"))
		}
		c.Effect("email", "daily summary: "+b.String())
		return c.OK("email sent")
	})
}

func atoi(s string) int {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	n := 0
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + int(ch-'0')
	}
	if neg {
		return -n
	}
	return n
}

// htmlEscaper is built once: a strings.Replacer is safe for concurrent use,
// and building one costs a ~6 KB table.
var htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// escape performs minimal HTML escaping for rendered pages.
func escape(s string) string { return htmlEscaper.Replace(s) }

func (a *App) sessionUser(c *web.Ctx) (string, bool) {
	s, ok := c.DB.Get(ModelSession, c.Form("session"))
	if !ok {
		return "", false
	}
	return s.Get("user"), true
}

// Authorize implements the same-principal repair policy (§7.3): a repair is
// allowed only on behalf of the user (or peer service) that issued the
// original request.
func (a *App) Authorize(ac core.AuthzRequest) bool {
	switch {
	case ac.Kind == warp.OutReplaceResponse:
		// The transport authenticated the producing server; additionally
		// only responses that server itself produced reach this point.
		return true
	case ac.Kind == warp.OutCreate:
		return ac.From != ""
	case ac.OriginalFrom != "":
		return ac.From == ac.OriginalFrom
	}
	orig := ac.Original
	if strings.HasPrefix(orig.Path, "/admin/") {
		return ac.Carrier.Header["X-Admin-Token"] == a.AdminToken
	}
	if sess := orig.Form["session"]; sess != "" {
		// Same user: carrier session must resolve (at the original time) to
		// the same user as the original session.
		origUser, ok := ac.Snapshot.Get(ModelSession, sess)
		if !ok {
			return false
		}
		repairUser, ok := ac.Snapshot.Get(ModelSession, ac.Carrier.Header["X-Repair-Session"])
		return ok && repairUser.Get("user") == origUser.Get("user")
	}
	if tok := orig.Form["oauth_token"]; tok != "" {
		// Registration repair: carrier must present the same OAuth token.
		return ac.Carrier.Header["X-Repair-OAuth-Token"] == tok
	}
	return false
}
