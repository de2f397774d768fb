package askbot

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aire/internal/orm"
	"aire/internal/wire"
)

// The fmt renderers the append renderers replaced, kept as the oracle:
// re-execution compares a replayed page with the original byte for byte,
// so the two must never disagree.

var fmtEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func fmtQuestionRow(id, title, author, rep, pasteID string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<li id=%q><a>%s</a> <span class=author>%s (rep %s)</span>",
		id, fmtEscaper.Replace(title), fmtEscaper.Replace(author), rep)
	if pasteID != "" {
		fmt.Fprintf(&b, " <a class=code href=\"dpaste://%s\">code</a>", pasteID)
	}
	b.WriteString("</li>\n")
	return b.String()
}

func fmtQuestion(title, author, body string) string {
	return fmt.Sprintf("%q by %s\n%s\n", title, author, body)
}

func fmtAnswer(author, body string) string {
	return fmt.Sprintf("answer by %s: %s\n", author, body)
}

// fmtQuestionsPage is the old /questions handler body, run against a
// snapshot of the store.
func fmtQuestionsPage(db *orm.Tx) string {
	var b strings.Builder
	b.WriteString("<html><body><h1>All Questions</h1><ul>\n")
	for _, q := range db.List(ModelQuestion) {
		rep := "?"
		if u, ok := db.Get(ModelUser, q.Get("author")); ok {
			rep = u.Get("reputation")
		}
		b.WriteString(fmtQuestionRow(q.ID, q.Get("title"), q.Get("author"), rep, q.Get("paste_id")))
	}
	b.WriteString("</ul></body></html>\n")
	return b.String()
}

// adversarial holds strings that exercise every branch of %q and of the
// HTML escaper: specials, backslashes, quotes, non-ASCII (printable and
// not), control bytes, and invalid UTF-8.
var adversarial = []string{
	"",
	"How do I frob the widget?",
	`&<>"`,
	`<b>"Q&A"</b> it's`,
	`back\slash \n \\`,
	`"`,
	"é ü 日本語 🙂",
	"\x00\x01\x07\t\n\r\x1b\x7f",
	"\xff\xfe",
	"trunc\xc3",
	"\x80lead",
	"nbsp\u00a0soft\u00adhyphen",
	"line\u2028sep\ufeffbom",
	"%d %s %q %!",
	"~ !#$%()*+,-./:;=?@[]^_`{|}",
	"q-askbot-req-15000.0",
}

// randomString draws bytes weighted toward the characters the renderers
// treat specially.
func randomString(rng *rand.Rand) string {
	const specials = "&<>\"\\'\x00\n\t\x7f\x80\xc3\xa9\xff~ "
	b := make([]byte, rng.Intn(24))
	for i := range b {
		switch rng.Intn(3) {
		case 0:
			b[i] = specials[rng.Intn(len(specials))]
		case 1:
			b[i] = byte(rng.Intn(256))
		default:
			b[i] = byte('a' + rng.Intn(26))
		}
	}
	return string(b)
}

func TestRenderersMatchFmt(t *testing.T) {
	inputs := append([]string(nil), adversarial...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		inputs = append(inputs, randomString(rng))
	}
	for i, s := range inputs {
		o := inputs[(i+1)%len(inputs)]
		for _, paste := range []string{"", "paste-" + o} {
			if got, want := string(appendQuestionRow(nil, s, o, s, o, paste)), fmtQuestionRow(s, o, s, o, paste); got != want {
				t.Fatalf("row(%q, %q, paste %q):\n got %q\nwant %q", s, o, paste, got, want)
			}
		}
		if got, want := string(appendQuestion(nil, s, o, s)), fmtQuestion(s, o, s); got != want {
			t.Fatalf("question(%q, %q):\n got %q\nwant %q", s, o, got, want)
		}
		if got, want := string(appendAnswer(nil, s, o)), fmtAnswer(s, o); got != want {
			t.Fatalf("answer(%q, %q):\n got %q\nwant %q", s, o, got, want)
		}
		if got, want := string(appendQuoted([]byte("x"), s)), "x"+fmt.Sprintf("%q", s); got != want {
			t.Fatalf("quoted(%q) = %q, want %q", s, got, want)
		}
	}
}

// The handlers end to end: adversarial titles and bodies, with and without
// a crossposted snippet, render exactly what the fmt handlers rendered.
func TestQuestionPagesMatchFmt(t *testing.T) {
	x := newTB(t)
	s1 := x.register(t, "user1")
	s2 := x.register(t, "user2")
	var qids []string
	for i, title := range adversarial {
		if title == "" {
			continue
		}
		form := []string{"session", s1, "title", title, "body", adversarial[(i+3)%len(adversarial)]}
		if i%2 == 0 {
			form = append(form, "code", "x = "+title)
		}
		resp := x.call(t, "askbot", wire.NewRequest("POST", "/ask").WithForm(form...))
		if !resp.OK() {
			t.Fatalf("ask %q: %d %s", title, resp.Status, resp.Body)
		}
		qids = append(qids, string(resp.Body))
	}
	for i, qid := range qids[:4] {
		resp := x.call(t, "askbot", wire.NewRequest("POST", "/answer").WithForm(
			"session", s2, "question", qid, "body", adversarial[i+2]))
		if !resp.OK() {
			t.Fatalf("answer: %d %s", resp.Status, resp.Body)
		}
	}
	db := orm.Snapshot(x.bot.Svc.Store, x.bot.Svc.Schema, math.MaxInt64)

	page := x.call(t, "askbot", wire.NewRequest("GET", "/questions"))
	if want := fmtQuestionsPage(db); string(page.Body) != want {
		t.Fatalf("/questions:\n got %q\nwant %q", page.Body, want)
	}
	for _, qid := range qids {
		q, _ := db.Get(ModelQuestion, qid)
		want := fmtQuestion(q.Get("title"), q.Get("author"), q.Get("body"))
		for _, a := range db.Select(ModelAnswer, func(o orm.Obj) bool { return o.Get("question") == qid }) {
			want += fmtAnswer(a.Get("author"), a.Get("body"))
		}
		got := x.call(t, "askbot", wire.NewRequest("GET", "/question").WithForm("id", qid))
		if string(got.Body) != want {
			t.Fatalf("/question %s:\n got %q\nwant %q", qid, got.Body, want)
		}
	}
}
