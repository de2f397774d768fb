package transport

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"aire/internal/wire"
)

func echo(name string) HandlerFunc {
	return func(from string, req wire.Request) wire.Response {
		return wire.NewResponse(200, name+" saw "+from+" "+req.Form["msg"])
	}
}

func TestBusDelivery(t *testing.T) {
	b := NewBus()
	b.Register("b", echo("b"))
	resp, err := b.Call("a", "b", wire.NewRequest("POST", "/x").WithForm("msg", "hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "b saw a hi" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestBusUnknownService(t *testing.T) {
	b := NewBus()
	if _, err := b.Call("a", "nope", wire.NewRequest("GET", "/")); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("want ErrUnknownService, got %v", err)
	}
}

func TestBusOffline(t *testing.T) {
	b := NewBus()
	b.Register("b", echo("b"))
	b.SetOffline("b", true)
	if _, err := b.Call("a", "b", wire.NewRequest("GET", "/")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	if !b.Offline("b") {
		t.Fatal("Offline not reported")
	}
	b.SetOffline("b", false)
	if _, err := b.Call("a", "b", wire.NewRequest("GET", "/")); err != nil {
		t.Fatalf("service back online should accept calls: %v", err)
	}
	delivered, dropped := b.Stats()
	if delivered != 1 || dropped != 1 {
		t.Fatalf("stats = %d delivered, %d dropped", delivered, dropped)
	}
}

func TestNotifierURLRoundTrip(t *testing.T) {
	u := NotifierURL("askbot")
	svc, path, err := ParseNotifierURL(u)
	if err != nil {
		t.Fatal(err)
	}
	if svc != "askbot" || path != "/aire/notify" {
		t.Fatalf("parsed %q %q", svc, path)
	}
	if _, _, err := ParseNotifierURL("http://x/y"); err == nil {
		t.Fatal("non-aire URL must be rejected")
	}
}

func TestHTTPAdapterRoundTrip(t *testing.T) {
	h := HandlerFunc(func(from string, req wire.Request) wire.Response {
		resp := wire.NewResponse(200, "from="+from+" k="+req.Form["k"]+" hdr="+req.Header[wire.HdrResponseID])
		resp.Header[wire.HdrRequestID] = "srv-req-1"
		return resp
	})
	ts := httptest.NewServer(NewHTTPHandler(h))
	defer ts.Close()

	caller := &HTTPCaller{BaseURLs: map[string]string{"srv": ts.URL}}
	req := wire.NewRequest("POST", "/op").WithForm("k", "v").WithHeader(wire.HdrResponseID, "cli-resp-1")
	resp, err := caller.Call("cli", "srv", req)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "from=cli k=v hdr=cli-resp-1" {
		t.Fatalf("body = %q", resp.Body)
	}
	if resp.Header[wire.HdrRequestID] != "srv-req-1" {
		t.Fatal("Aire response headers must survive the HTTP adapter")
	}
}

// TestHTTPAdapterDeliveryHeaders: the exactly-once session headers must
// survive the net/http canonicalization round-trip in both directions —
// the same spot where Aire-Notifier-URL silently went missing before the
// wireHeaderKeys mapping existed. A delivery header the server-side
// handler cannot read under its wire spelling would disable dedup over
// real sockets while every bus test passes.
func TestHTTPAdapterDeliveryHeaders(t *testing.T) {
	h := HandlerFunc(func(from string, req wire.Request) wire.Response {
		resp := wire.NewResponse(200,
			req.Header[wire.HdrDeliveryID]+"|"+req.Header[wire.HdrGeneration]+"|"+req.Header[wire.HdrOrigin])
		resp.Header[wire.HdrDeliveryID] = req.Header[wire.HdrDeliveryID]
		return resp
	})
	ts := httptest.NewServer(NewHTTPHandler(h))
	defer ts.Close()

	caller := &HTTPCaller{BaseURLs: map[string]string{"srv": ts.URL}}
	req := wire.NewRequest("POST", "/aire/repair").WithHeader(
		wire.HdrDeliveryID, "a-dlv-7",
		wire.HdrGeneration, "3",
		wire.HdrOrigin, "a",
	)
	resp, err := caller.Call("a", "srv", req)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "a-dlv-7|3|a" {
		t.Fatalf("server saw %q, want %q — delivery headers lost in request canonicalization", resp.Body, "a-dlv-7|3|a")
	}
	if resp.Header[wire.HdrDeliveryID] != "a-dlv-7" {
		t.Fatal("delivery headers lost in response canonicalization")
	}
}

// TestHTTPHandlerRefusesUnreadableRequests: a request the adapter cannot
// read in full is answered 400 (413 when over the byte cap) and never
// reaches the wire handler — dispatching it would hand the controller a
// request with silently missing form fields or an empty body.
func TestHTTPHandlerRefusesUnreadableRequests(t *testing.T) {
	const form = "application/x-www-form-urlencoded"
	cases := []struct {
		name        string
		target      string
		contentType string
		body        io.Reader
		want        int
	}{
		{"bad escape in query", "/put?key=%zz", "", nil, http.StatusBadRequest},
		{"bad escape in form body", "/put", form, strings.NewReader("key=%zz"), http.StatusBadRequest},
		{"opaque body fails mid-read", "/aire/repair", "application/json",
			io.MultiReader(strings.NewReader(`{"method":`), iotest.ErrReader(io.ErrUnexpectedEOF)), http.StatusBadRequest},
		{"oversized opaque body", "/aire/repair", "application/json",
			bytes.NewReader(make([]byte, maxRequestBytes+1)), http.StatusRequestEntityTooLarge},
		{"oversized form body", "/put", form,
			strings.NewReader("val=" + strings.Repeat("x", maxRequestBytes)), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			h := NewHTTPHandler(HandlerFunc(func(string, wire.Request) wire.Response {
				calls++
				return wire.NewResponse(200, "ok")
			}))
			r := httptest.NewRequest("POST", tc.target, tc.body)
			if tc.contentType != "" {
				r.Header.Set("Content-Type", tc.contentType)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d (body %q)", w.Code, tc.want, w.Body)
			}
			if calls != 0 {
				t.Fatalf("wire handler invoked %d times on an unreadable request", calls)
			}
		})
	}
}

func TestHTTPCallerUnknownAndUnavailable(t *testing.T) {
	caller := &HTTPCaller{BaseURLs: map[string]string{"gone": "http://127.0.0.1:1"}}
	if _, err := caller.Call("cli", "nope", wire.NewRequest("GET", "/")); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("want ErrUnknownService, got %v", err)
	}
	if _, err := caller.Call("cli", "gone", wire.NewRequest("GET", "/")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}
