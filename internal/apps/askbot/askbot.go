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
	"strconv"
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
		now := strconv.FormatInt(c.Now(), 10)
		if err := c.DB.Put(ModelRevision, "rev-"+c.NewID(), orm.Fields(
			"post", qid, "body", body, "author", user, "at", now)); err != nil {
			return c.Error(500, err.Error())
		}
		if err := c.DB.Put(ModelActivity, "act-"+c.NewID(), orm.Fields(
			"kind", "ask", "actor", user, "object", qid, "at", now)); err != nil {
			return c.Error(500, err.Error())
		}
		if _, err := c.DB.Update(ModelUser, user, func(f map[string]string) {
			f["posts"] = strconv.Itoa(atoi(f["posts"]) + 1)
			f["reputation"] = strconv.Itoa(atoi(f["reputation"]) + 2)
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
			if err := c.DB.Put(ModelTag, tag, orm.Fields("count", strconv.Itoa(n+1))); err != nil {
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
			f["reputation"] = strconv.Itoa(atoi(f["reputation"]) + delta)
		}); err != nil {
			return c.Error(500, err.Error())
		}
		return c.OK("voted " + dir)
	})

	// GET /tags lists tag usage counts.
	svc.Router.Handle("GET", "/tags", func(c *web.Ctx) wire.Response {
		var b []byte
		for _, tg := range c.DB.List(ModelTag) {
			b = append(b, tg.ID...)
			b = append(b, '=')
			b = append(b, tg.Get("count")...)
			b = append(b, '\n')
		}
		return c.OKBytes(b)
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
		qs := c.DB.List(ModelQuestion)
		b := make([]byte, 0, len(questionsHead)+len(questionsTail)+questionRowSize*len(qs))
		b = append(b, questionsHead...)
		for _, q := range qs {
			author := q.Get("author")
			rep := "?"
			if u, ok := c.DB.Get(ModelUser, author); ok {
				rep = u.Get("reputation")
			}
			b = appendQuestionRow(b, q.ID, q.Get("title"), author, rep, q.Get("paste_id"))
		}
		b = append(b, questionsTail...)
		return c.OKBytes(b)
	})

	// GET /question shows one question with its answers.
	svc.Router.Handle("GET", "/question", func(c *web.Ctx) wire.Response {
		q, ok := c.DB.Get(ModelQuestion, c.Form("id"))
		if !ok {
			return c.Error(404, "no such question")
		}
		b := appendQuestion(nil, q.Get("title"), q.Get("author"), q.Get("body"))
		for _, ans := range c.DB.Select(ModelAnswer, func(o orm.Obj) bool {
			return o.Get("question") == c.Form("id")
		}) {
			b = appendAnswer(b, ans.Get("author"), ans.Get("body"))
		}
		return c.OKBytes(b)
	})

	// POST /admin/daily_email sends the daily activity summary — an
	// external effect; under repair Aire compensates by notifying the
	// administrator of the corrected contents (§7.1).
	svc.Router.Handle("POST", "/admin/daily_email", func(c *web.Ctx) wire.Response {
		if c.Header("X-Admin-Token") != a.AdminToken {
			return c.Error(403, "admin token required")
		}
		b := []byte("daily summary: ")
		for _, q := range c.DB.List(ModelQuestion) {
			b = append(b, q.Get("title")...)
			b = append(b, " by "...)
			b = append(b, q.Get("author")...)
			b = append(b, "; "...)
		}
		c.Effect("email", string(b))
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

// The pages render by appending into one []byte. Re-execution compares a
// replayed response with the original byte for byte, so these renderers
// must keep producing exactly what the fmt verbs they replaced did
// (render_test.go keeps those fmt renderers as the oracle).

const (
	questionsHead = "<html><body><h1>All Questions</h1><ul>\n"
	questionsTail = "</ul></body></html>\n"
	// questionRowSize is a typical rendered /questions row, to size the
	// page buffer up front.
	questionRowSize = 128
)

// appendQuestionRow renders one /questions row.
func appendQuestionRow(b []byte, id, title, author, rep, pasteID string) []byte {
	b = append(b, "<li id="...)
	b = appendQuoted(b, id)
	b = append(b, "><a>"...)
	b = appendEscaped(b, title)
	b = append(b, "</a> <span class=author>"...)
	b = appendEscaped(b, author)
	b = append(b, " (rep "...)
	b = append(b, rep...)
	b = append(b, ")</span>"...)
	if pasteID != "" {
		b = append(b, ` <a class=code href="dpaste://`...)
		b = append(b, pasteID...)
		b = append(b, `">code</a>`...)
	}
	return append(b, "</li>\n"...)
}

// appendQuestion renders the head of the /question page.
func appendQuestion(b []byte, title, author, body string) []byte {
	b = appendQuoted(b, title)
	b = append(b, " by "...)
	b = append(b, author...)
	b = append(b, '\n')
	b = append(b, body...)
	return append(b, '\n')
}

// appendAnswer renders one answer line of the /question page.
func appendAnswer(b []byte, author, body string) []byte {
	b = append(b, "answer by "...)
	b = append(b, author...)
	b = append(b, ": "...)
	b = append(b, body...)
	return append(b, '\n')
}

// appendQuoted appends s as a double-quoted Go string literal, exactly as
// strconv.Quote (and fmt's %q) writes it. Printable ASCII without quote or
// backslash, what minted IDs and most titles are, is copied as is.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendEscaped appends s with minimal HTML escaping (&, <, >, ").
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		last = i + 1
	}
	return append(b, s[last:]...)
}

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
