package transport

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"aire/internal/obs"
	"aire/internal/wire"
)

// HTTPHeaderFrom carries the caller's claimed service identity across real
// HTTP. On the in-memory bus the fabric vouches for the caller; over plain
// HTTP in the examples we trust this header the way a deployment would trust
// a TLS client certificate. Production use would bind it to mTLS.
const HTTPHeaderFrom = "Aire-From-Service"

// wireHeaderKeys maps the net/http canonical form of every Aire protocol
// header back to its wire spelling. Some wire spellings are not canonical
// (Aire-Notifier-URL arrives as Aire-Notifier-Url), and without this
// mapping every req.Header[wire.HdrNotifierURL] lookup silently misses
// over real HTTP — replace_response propagation then works on the
// in-memory bus but not through the adapter. Built from the wire
// constants so a future non-canonical header cannot reintroduce the bug.
var wireHeaderKeys = func() map[string]string {
	m := map[string]string{}
	for _, h := range wire.AireHeaders {
		m[http.CanonicalHeaderKey(h)] = h
	}
	return m
}()

func wireHeaderKey(k string) string {
	if w, ok := wireHeaderKeys[k]; ok {
		return w
	}
	return k
}

// maxRequestBytes caps the body NewHTTPHandler reads from one request,
// form-encoded or opaque. The largest legitimate body is a repair frame,
// which senders pack under this cap; anything bigger is refused with 413
// before the controller sees it.
const maxRequestBytes = wire.MaxBodyBytes

// NewHTTPHandler exposes a wire Handler as an http.Handler, folding query
// string and form body into wire.Request.Form. A request the adapter
// cannot read in full — malformed query or form encoding, a body that
// fails mid-read, a body over maxRequestBytes — is answered 400 (413 when
// oversized) and never dispatched: a half-read request would reach the
// controller with silently missing fields.
func NewHTTPHandler(h Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := wire.NewRequest(r.Method, r.URL.Path)
		for k, vs := range r.Header {
			if len(vs) > 0 {
				req.Header[wireHeaderKey(http.CanonicalHeaderKey(k))] = vs[0]
			}
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
		// ParseForm folds the query string plus (for urlencoded posts) the
		// body into r.Form; an opaque body (e.g. the encoded request inside
		// a repair call) is preserved separately.
		ct := r.Header.Get("Content-Type")
		if err := r.ParseForm(); err != nil {
			refuseUnreadable(w, err)
			return
		}
		for k, vs := range r.Form {
			if len(vs) > 0 {
				req.Form[k] = vs[0]
			}
		}
		if !strings.HasPrefix(ct, "application/x-www-form-urlencoded") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				refuseUnreadable(w, err)
				return
			}
			if len(body) > 0 {
				req.Body = body
			}
		}
		from := r.Header.Get(HTTPHeaderFrom)
		resp := h.HandleWire(from, req)
		for k, v := range resp.Header {
			w.Header().Set(k, v)
		}
		w.WriteHeader(resp.Status)
		w.Write(resp.Body)
	})
}

// refuseUnreadable answers a request whose query, form or body could not
// be read: 413 when the body exceeded maxRequestBytes, 400 otherwise.
func refuseUnreadable(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "aire: unreadable request: "+err.Error(), status)
}

// Connection-pooling and timeout defaults for the adapter's HTTP client.
// net/http's DefaultTransport keeps only MaxIdleConnsPerHost=2 idle
// connections per peer, which serializes the pump's fan-out delivery behind
// TCP connection churn; the adapter's defaults are sized for a repair plane
// that fans out batches to many peers concurrently.
const (
	// DefaultHTTPTimeout bounds one delivery attempt end to end.
	DefaultHTTPTimeout = 5 * time.Second
	// DefaultMaxIdleConnsPerHost keeps enough warm connections per peer for
	// every pump worker to deliver to the same peer without a new handshake.
	DefaultMaxIdleConnsPerHost = 64
	// DefaultMaxIdleConns caps the pool across all peers.
	DefaultMaxIdleConns = 256
	// DefaultIdleConnTimeout recycles connections idle longer than this.
	DefaultIdleConnTimeout = 90 * time.Second
)

// HTTPCaller delivers wire requests over real HTTP. It implements the same
// Call contract as Bus for use by the controller's outgoing queues.
//
// The effective client is built once, on first use, from the
// caller-supplied Client (if any) with a zero Timeout or nil Transport
// filled from the package defaults above. A supplied Client with its own
// Transport or Timeout keeps them; the supplied value is never mutated.
type HTTPCaller struct {
	// BaseURLs maps service names to base URLs, e.g. "askbot" ->
	// "http://127.0.0.1:8031".
	BaseURLs map[string]string
	// Client, when non-nil, seeds the effective client — the deployment
	// seam for TLS credentials. When nil, the adapter builds a pooled
	// default client.
	Client *http.Client
	// Obs, when non-nil, counts wire calls and errors and observes call
	// latency ("transport.http.calls" / ".errors" / ".call_ns"). Handles
	// resolve once, alongside the client; nil keeps Call uninstrumented.
	Obs *obs.Registry

	clientOnce sync.Once
	client     *http.Client
	obsCalls   *obs.Counter
	obsErrs    *obs.Counter
	obsCallNS  *obs.Histogram
}

// httpClient resolves the effective client exactly once; see the HTTPCaller
// doc comment for the composition rules.
func (c *HTTPCaller) httpClient() *http.Client {
	c.clientOnce.Do(func() {
		var cl http.Client
		if c.Client != nil {
			cl = *c.Client // shallow copy: fill gaps without mutating the caller's client
		}
		if cl.Timeout == 0 {
			cl.Timeout = DefaultHTTPTimeout
		}
		if cl.Transport == nil {
			t := http.DefaultTransport.(*http.Transport).Clone()
			t.MaxIdleConnsPerHost = DefaultMaxIdleConnsPerHost
			t.MaxIdleConns = DefaultMaxIdleConns
			t.IdleConnTimeout = DefaultIdleConnTimeout
			cl.Transport = t
		}
		c.client = &cl
		c.obsCalls = c.Obs.Counter("transport.http.calls")
		c.obsErrs = c.Obs.Counter("transport.http.errors")
		c.obsCallNS = c.Obs.Histogram("transport.http.call_ns")
	})
	return c.client
}

// Call sends req to the named service over HTTP.
func (c *HTTPCaller) Call(from, to string, req wire.Request) (wire.Response, error) {
	base, ok := c.BaseURLs[to]
	if !ok {
		return wire.Response{}, fmt.Errorf("%w: %s", ErrUnknownService, to)
	}
	form := url.Values{}
	for k, v := range req.Form {
		form.Set(k, v)
	}
	// GET and HEAD carry form values in the query string (ParseForm ignores
	// bodies on those methods); other methods use a form-encoded body
	// unless the request has an opaque payload.
	target := base + req.Path
	var body io.Reader
	bodyIsForm := false
	switch {
	case req.Method == http.MethodGet || req.Method == http.MethodHead:
		if len(form) > 0 {
			target += "?" + form.Encode()
		}
		if len(req.Body) > 0 {
			body = strings.NewReader(string(req.Body))
		}
	case len(req.Body) > 0:
		if len(form) > 0 {
			target += "?" + form.Encode()
		}
		body = strings.NewReader(string(req.Body))
	default:
		body = strings.NewReader(form.Encode())
		bodyIsForm = true
	}
	hreq, err := http.NewRequest(req.Method, target, body)
	if err != nil {
		return wire.Response{}, err
	}
	if bodyIsForm {
		hreq.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	for k, v := range req.Header {
		hreq.Header.Set(k, v)
	}
	if from != "" {
		hreq.Header.Set(HTTPHeaderFrom, from)
	}
	cl := c.httpClient()
	var callStart time.Time
	if c.Obs != nil {
		callStart = time.Now()
	}
	hresp, err := cl.Do(hreq)
	if c.Obs != nil {
		c.obsCallNS.ObserveNS(int64(time.Since(callStart)))
		c.obsCalls.Inc()
		if err != nil {
			c.obsErrs.Inc()
		}
	}
	if err != nil {
		return wire.Response{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer hresp.Body.Close()
	rb, err := io.ReadAll(hresp.Body)
	if err != nil {
		return wire.Response{}, err
	}
	resp := wire.Response{Status: hresp.StatusCode, Header: map[string]string{}, Body: rb}
	for k, vs := range hresp.Header {
		if len(vs) > 0 && strings.HasPrefix(k, "Aire-") {
			resp.Header[wireHeaderKey(k)] = vs[0]
		}
	}
	return resp, nil
}
