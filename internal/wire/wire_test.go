package wire

import (
	"bytes"
	"maps"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestEqualIgnoresAireHeaders(t *testing.T) {
	a := NewRequest("POST", "/put").WithForm("k", "x").WithHeader("Cookie", "abc")
	b := a.WithHeader(HdrRequestID, "r1", HdrResponseID, "s1", HdrNotifierURL, "aire://x/aire/notify", HdrRepair, "replace",
		HdrDeliveryID, "x-dlv-3", HdrGeneration, "2", HdrOrigin, "x")
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("requests differing only in Aire headers must be equal:\n%v\n%v", a.Header, b.Header)
	}
}

func TestIsAireHeader(t *testing.T) {
	for _, h := range []string{HdrRequestID, HdrResponseID, HdrNotifierURL, HdrRepair, HdrDeliveryID, HdrGeneration, HdrOrigin} {
		if !IsAireHeader(h) {
			t.Errorf("IsAireHeader(%q) = false", h)
		}
	}
	for _, h := range []string{"Cookie", "Authorization", "Aire-Other"} {
		if IsAireHeader(h) {
			t.Errorf("IsAireHeader(%q) = true", h)
		}
	}
}

func TestEqualSensitivity(t *testing.T) {
	base := NewRequest("POST", "/put").WithForm("k", "x")
	cases := map[string]Request{
		"method": {Method: "GET", Path: "/put", Form: map[string]string{"k": "x"}},
		"path":   base.Clone().WithForm(), // same, then change path below
		"form":   base.WithForm("k", "y"),
		"header": base.WithHeader("Cookie", "z"),
		"body":   func() Request { r := base.Clone(); r.Body = []byte("b"); return r }(),
	}
	cases["path"] = Request{Method: "POST", Path: "/other", Form: map[string]string{"k": "x"}}
	for name, r := range cases {
		if base.Equal(r) || r.Equal(base) {
			t.Errorf("%s change should make requests differ", name)
		}
	}
	// Values are compared as values, never through a flattened encoding
	// in which one map's entry can spell out two of another's.
	collisions := map[string][2]Request{
		"form value spells an entry": {
			{Method: "POST", Path: "/p", Form: map[string]string{"a": "b\nc=d"}},
			{Method: "POST", Path: "/p", Form: map[string]string{"a": "b", "c": "d"}},
		},
		"header value spells an entry": {
			{Method: "POST", Path: "/p", Header: map[string]string{"X-A": "b\nX-C=d"}},
			{Method: "POST", Path: "/p", Header: map[string]string{"X-A": "b", "X-C": "d"}},
		},
		"method/path split": {
			{Method: "POST /a", Path: "b"},
			{Method: "POST", Path: "/a b"},
		},
	}
	for name, c := range collisions {
		if c[0].Equal(c[1]) || c[1].Equal(c[0]) {
			t.Errorf("%s: %#v and %#v must differ", name, c[0], c[1])
		}
	}
}

func TestEqualNilMapEqualsEmpty(t *testing.T) {
	a := Request{Method: "GET", Path: "/g"}
	b := NewRequest("GET", "/g")
	b.Body = []byte{}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("nil and empty maps and bodies must compare equal")
	}
	if !(Response{Status: 200}).Equal(NewResponse(200, "")) {
		t.Fatal("nil and empty response headers and bodies must compare equal")
	}
}

func TestResponseEqual(t *testing.T) {
	a := NewResponse(200, "hello")
	b := a.Clone()
	b.Header[HdrRequestID] = "r9"
	if !a.Equal(b) {
		t.Fatal("Aire headers must not affect response equality")
	}
	c := NewResponse(404, "hello")
	if a.Equal(c) {
		t.Fatal("status must affect response equality")
	}
	d, e := NewResponse(200, "hello"), NewResponse(200, "hello")
	d.Header["X-A"] = "b\nX-C=d"
	e.Header["X-A"], e.Header["X-C"] = "b", "d"
	if d.Equal(e) || e.Equal(d) {
		t.Fatal("a header value spelling a second entry must not compare equal")
	}
}

func TestEqualDoesNotAllocate(t *testing.T) {
	body := []byte(strings.Repeat("page ", 8192))
	a := NewRequest("POST", "/p").WithForm("k", "x", "v", "y").WithHeader("Cookie", "c", HdrRequestID, "r1")
	b := a.WithHeader(HdrRequestID, "r2")
	a.Body, b.Body = body, append([]byte(nil), body...)
	ra, rb := NewResponse(200, string(body)), NewResponse(200, string(body))
	ra.Header[HdrRequestID] = "r1"
	if n := testing.AllocsPerRun(100, func() {
		if !a.Equal(b) || !ra.Equal(rb) {
			t.Fatal("equal messages compared unequal")
		}
	}); n != 0 {
		t.Fatalf("Equal allocated %.0f times per call, want 0", n)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := NewRequest("POST", "/x").WithForm("a", "1", "b", "2").WithHeader("Cookie", "u")
	r.Body = []byte{0, 1, 2, 255}
	got, err := DecodeRequest(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) || got.Header["Cookie"] != "u" {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}

	resp := NewResponse(201, "made")
	resp.Header["X-Extra"] = "1"
	got2, err := DecodeResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(resp) || got2.Header["X-Extra"] != "1" {
		t.Fatalf("response round trip mismatch: %+v vs %+v", got2, resp)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := NewRequest("POST", "/x").WithForm("a", "1")
	c := r.Clone()
	c.Form["a"] = "2"
	c.Header["H"] = "v"
	if r.Form["a"] != "1" || r.Header["H"] != "" {
		t.Fatal("clone shares maps with original")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	f := func(a, b, v1, v2 string) bool {
		r := NewRequest("POST", "/p").WithForm(a, v1).WithForm(b, v2)
		return string(r.Encode()) == string(r.Clone().Encode())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWithFormDoesNotMutateReceiver(t *testing.T) {
	r := NewRequest("GET", "/g")
	_ = r.WithForm("k", "v")
	if len(r.Form) != 0 {
		t.Fatal("WithForm mutated receiver")
	}
}

func TestOK(t *testing.T) {
	if !NewResponse(204, "").OK() || NewResponse(404, "").OK() || NewResponse(199, "").OK() {
		t.Fatal("OK boundary conditions wrong")
	}
}

// fuzzMap parses "k=v;k=v" into a map; "" is nil and a lone ";" an empty
// map, so both spellings of "no entries" reach Equal. A value may hold '='
// and newlines, which is what made the flattened encoding collide.
func fuzzMap(spec string) map[string]string {
	if spec == "" {
		return nil
	}
	m := map[string]string{}
	for _, e := range strings.Split(spec, ";") {
		if k, v, ok := strings.Cut(e, "="); ok {
			m[k] = v
		}
	}
	return m
}

// oracleMap is the slow reference normalization: a fresh non-nil map without
// the Aire headers when skipAire is set.
func oracleMap(m map[string]string, skipAire bool) map[string]string {
	out := map[string]string{}
	for k, v := range m {
		if !skipAire || !IsAireHeader(k) {
			out[k] = v
		}
	}
	return out
}

func oracleReqEqual(a, b Request) bool {
	return a.Method == b.Method && a.Path == b.Path && bytes.Equal(a.Body, b.Body) &&
		reflect.DeepEqual(oracleMap(a.Form, false), oracleMap(b.Form, false)) &&
		reflect.DeepEqual(oracleMap(a.Header, true), oracleMap(b.Header, true))
}

func oracleRespEqual(a, b Response) bool {
	return a.Status == b.Status && bytes.Equal(a.Body, b.Body) &&
		reflect.DeepEqual(oracleMap(a.Header, true), oracleMap(b.Header, true))
}

// withAire returns a copy of h with Aire headers added (the bits of mask
// pick which).
func withAire(h map[string]string, mask uint16) map[string]string {
	c := cloneMap(h)
	for i, name := range AireHeaders {
		if mask&(1<<i) != 0 {
			if c == nil {
				c = map[string]string{}
			}
			c[name] = "v" + name
		}
	}
	return c
}

func validUTF8(ss ...string) bool {
	for _, s := range ss {
		if !utf8.ValidString(s) {
			return false
		}
	}
	return true
}

func validMapUTF8(ms ...map[string]string) bool {
	for _, m := range ms {
		for k, v := range m {
			if !validUTF8(k, v) {
				return false
			}
		}
	}
	return true
}

// FuzzWireEqual checks request and response equality against the slow
// oracle: reflexive, symmetric, blind to Aire headers, and preserved by an
// Encode/Decode round trip. Longer local runs:
//
//	go test -fuzz FuzzWireEqual -fuzztime 5m ./internal/wire
func FuzzWireEqual(f *testing.F) {
	f.Add("POST", "/put", "k=x", "Cookie=u", []byte("b"), "k=x", "Cookie=u", []byte("b"), 200, uint16(0))
	f.Add("POST", "/p", "a=b\nc=d", "", []byte(nil), "a=b;c=d", "", []byte(nil), 200, uint16(1))
	f.Add("GET", "/g", "", "X-A=b\nX-C=d", []byte{}, ";", "X-A=b;X-C=d", []byte(nil), 404, uint16(0x7fff))
	f.Add("POST", "/r", "k=1", "Aire-Request-Id=r1;Cookie=c", []byte("x"), "k=1", "Cookie=c;Aire-Generation=3", []byte("x"), 0, uint16(6))
	f.Fuzz(func(t *testing.T, method, path, formA, hdrA string, bodyA []byte, formB, hdrB string, bodyB []byte, status int, mask uint16) {
		a := Request{Method: method, Path: path, Form: fuzzMap(formA), Header: fuzzMap(hdrA), Body: bodyA}
		b := Request{Method: method, Path: path, Form: fuzzMap(formB), Header: fuzzMap(hdrB), Body: bodyB}
		ra := Response{Status: status, Header: a.Header, Body: bodyA}
		rb := Response{Status: status, Header: b.Header, Body: bodyB}

		if !a.Equal(a) || !b.Equal(b) || !ra.Equal(ra) || !rb.Equal(rb) {
			t.Fatal("Equal is not reflexive")
		}
		eq, req := a.Equal(b), ra.Equal(rb)
		if eq != b.Equal(a) || req != rb.Equal(ra) {
			t.Fatal("Equal is not symmetric")
		}
		if eq != oracleReqEqual(a, b) {
			t.Fatalf("request Equal = %v, oracle disagrees:\n%#v\n%#v", eq, a, b)
		}
		if req != oracleRespEqual(ra, rb) {
			t.Fatalf("response Equal = %v, oracle disagrees:\n%#v\n%#v", req, ra, rb)
		}

		// Aire headers never matter: adding or removing them changes
		// neither self-equality nor the answer against b.
		for _, h := range []map[string]string{withAire(a.Header, mask), oracleMap(a.Header, true)} {
			a2 := a
			a2.Header = h
			ra2 := ra
			ra2.Header = h
			if !a2.Equal(a) || a2.Equal(b) != eq || !ra2.Equal(ra) || ra2.Equal(rb) != req {
				t.Fatalf("Aire headers changed equality: %v vs %v", a.Header, h)
			}
		}

		// JSON replaces invalid UTF-8, so only valid strings can round-trip.
		if !validUTF8(method, path) || !validMapUTF8(a.Form, a.Header) {
			return
		}
		da, err := DecodeRequest(a.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !da.Equal(a) || da.Equal(b) != eq {
			t.Fatalf("request round trip changed equality: %#v -> %#v", a, da)
		}
		dra, err := DecodeResponse(ra.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !dra.Equal(ra) || dra.Equal(rb) != req {
			t.Fatalf("response round trip changed equality: %#v -> %#v", ra, dra)
		}
	})
}

// sameRequest and sameResponse compare every field, Aire headers included;
// a nil map or body equals an empty one, since Encode omits both.
func sameRequest(a, b Request) bool {
	return a.Method == b.Method && a.Path == b.Path && maps.Equal(a.Header, b.Header) &&
		maps.Equal(a.Form, b.Form) && bytes.Equal(a.Body, b.Body)
}

func sameResponse(a, b Response) bool {
	return a.Status == b.Status && maps.Equal(a.Header, b.Header) && bytes.Equal(a.Body, b.Body)
}

// FuzzWireDecode feeds arbitrary bytes to DecodeRequest and DecodeResponse,
// the decoders every repair carrier's payload and every fetched response
// go through: neither may panic, and a value either one decodes, encoded
// again, decodes to the same value with the same bytes.
func FuzzWireDecode(f *testing.F) {
	f.Add(NewRequest("POST", "/put").WithForm("key", "x", "val", "v").WithHeader("Cookie", "c", HdrDeliveryID, "a-dlv-3").Encode())
	f.Add(Response{Status: 200, Header: map[string]string{HdrRequestID: "b-req-1"}, Body: []byte("ok")}.Encode())
	f.Add([]byte(`{"method":"GET","path":"/g","form":{},"header":null,"body":""}`))
	f.Add([]byte(`{"status":404,"METHOD":"x","body":"bm8="}`))
	f.Add([]byte(`{"method":"a","method":"b","form":{"k":"\ud800"}}`))
	f.Add([]byte(`[1,2]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, err := DecodeRequest(b); err == nil {
			enc := r.Encode()
			again, err := DecodeRequest(enc)
			if err != nil {
				t.Fatalf("re-decoding an encoded request: %v", err)
			}
			if !sameRequest(again, r) || !bytes.Equal(again.Encode(), enc) {
				t.Fatalf("request does not round-trip: %#v -> %#v", r, again)
			}
		}
		if r, err := DecodeResponse(b); err == nil {
			enc := r.Encode()
			again, err := DecodeResponse(enc)
			if err != nil {
				t.Fatalf("re-decoding an encoded response: %v", err)
			}
			if !sameResponse(again, r) || !bytes.Equal(again.Encode(), enc) {
				t.Fatalf("response does not round-trip: %#v -> %#v", r, again)
			}
		}
	})
}
