// Package wire defines the HTTP-like message model exchanged between
// Aire-enabled services, together with the Aire dependency-tracking headers
// described in §3.1 of the paper ("Integrating Aire with HTTP").
//
// The types are deliberately smaller than net/http's: requests and responses
// must be logged, diffed, serialized into repair messages, and replayed
// deterministically, so they are plain value types with canonical encodings.
// An adapter in internal/transport converts to and from net/http.
package wire

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Aire header names. Per §3.1:
//
//   - Aire-Request-Id is added by a server to every response it produces and
//     names the request that triggered the response. The client stores it and
//     uses it to refer to that request in later repair operations.
//   - Aire-Response-Id is added by a client to every request it issues and
//     names the response the server will produce. The server stores it and
//     uses it if the response must later be repaired.
//   - Aire-Notifier-URL is added by a client to every request it issues; the
//     server contacts this URL to deliver a response-repair token.
//   - Aire-Repair marks a request as a repair operation (its value is the
//     operation type: replace, delete, create, or replace_response).
//
// The delivery headers implement the exactly-once session layer of the
// repair plane (internal/deliver). Repair delivery is at-least-once by
// construction — offline peers, timeouts, and re-delivery (§3.2) — so every
// repair-plane carrier additionally names its delivery:
//
//   - Aire-Delivery-Id is the durable identity of the queued repair message;
//     it is stable across delivery attempts, so the receiver can recognize a
//     re-delivery and re-acknowledge it without re-applying.
//   - Aire-Generation is the message's content generation: queue collapsing
//     and Retry supersede a message's content in place, bumping the
//     generation, so the receiver can discard a delayed copy of superseded
//     content that arrives after newer content was applied.
//   - Aire-Origin is the sending service, scoping delivery IDs (which are
//     only unique per sender) on transports that do not authenticate the
//     caller.
//
// The trace headers carry repair-wave identity for observability
// (internal/obs). Every repair cascade mints a wave ID at its origin, and
// each carrier names the wave it belongs to plus its hop depth (how many
// service-to-service deliveries separate it from the originating repair), so
// a wave's propagation shape can be reconstructed from span records alone —
// including across crash-recovery, because the context is persisted with the
// queued message. Trace headers are observability-only: they never influence
// repair semantics or delivery dedup.
//
// The version-vector headers implement the anti-entropy layer of the repair
// plane: every pump-stamped carrier piggybacks the sender's delivery vector
// for the (origin, peer) pair, and the receiver answers detected gaps with a
// NACK.
//
//   - Aire-Acked-Seq announces the sender's highest contiguous acknowledged
//     delivery sequence for this peer: every delivery it ever stamped for
//     this peer with a sequence at or below it has reached a terminal
//     outcome. The receiver may drop its dedup entries for that prefix and
//     classify any arrival at or below it as a duplicate — exactly.
//   - Aire-Frontier-Seq announces the highest delivery sequence the sender
//     has stamped for this peer, letting the receiver notice outstanding
//     deliveries it has never seen.
//   - Aire-Nack-Seq is the receiver's anti-entropy answer (a response
//     header): a sequence gap was detected against the announced vector, and
//     the sender should re-offer its unacknowledged backlog for this peer
//     immediately instead of waiting out delivery backoff.
//   - Aire-Reoffer marks a carrier as such an anti-entropy re-offer (set on
//     every attempt after a NACK), distinguishing it from plain
//     timeout-driven retries.
//   - Aire-Body-Sum is an end-to-end FNV-64a checksum of the carrier body;
//     the receive path refuses a mismatch loudly (retryably) instead of
//     applying a corrupted repair.
const (
	HdrRequestID   = "Aire-Request-Id"
	HdrResponseID  = "Aire-Response-Id"
	HdrNotifierURL = "Aire-Notifier-URL"
	HdrRepair      = "Aire-Repair"
	HdrDeliveryID  = "Aire-Delivery-Id"
	HdrGeneration  = "Aire-Generation"
	HdrOrigin      = "Aire-Origin"
	HdrTraceID     = "Aire-Trace-Id"
	HdrTraceHop    = "Aire-Trace-Hop"
	HdrAckedSeq    = "Aire-Acked-Seq"
	HdrFrontierSeq = "Aire-Frontier-Seq"
	HdrNackSeq     = "Aire-Nack-Seq"
	HdrReoffer     = "Aire-Reoffer"
	HdrBodySum     = "Aire-Body-Sum"
	// HdrShard names the destination shard of a repair-plane carrier when
	// the receiving service is horizontally sharded (core.ShardTopology).
	// The sender resolves the shard from the deterministic key→shard map
	// (or from the shard-qualified request ID the carrier already names)
	// and stamps it so a router can dispatch without re-deriving the key,
	// and a shard can refuse a carrier addressed to a sibling. Routing
	// metadata only: it never influences repair semantics or dedup.
	HdrShard = "Aire-Shard"
)

// Request is an API operation sent to a service.
type Request struct {
	// Method is the HTTP verb (GET, POST, PUT, DELETE).
	Method string `json:"method"`
	// Path identifies the operation, e.g. "/questions/post".
	Path string `json:"path"`
	// Header carries metadata, including the Aire headers above and
	// application credentials (cookies, tokens).
	Header map[string]string `json:"header,omitempty"`
	// Form carries the operation's parameters (query string + form body
	// folded together, as our mini-framework does not distinguish them).
	Form map[string]string `json:"form,omitempty"`
	// Body is an optional opaque payload.
	Body []byte `json:"body,omitempty"`
}

// Response is a service's answer to a Request.
type Response struct {
	// Status is the HTTP-like status code (200, 403, 404, 408, 500, ...).
	Status int `json:"status"`
	// Header carries metadata, including Aire-Request-Id.
	Header map[string]string `json:"header,omitempty"`
	// Body is the response payload.
	Body []byte `json:"body,omitempty"`
}

// StatusTimeout is returned tentatively for outgoing calls issued during
// repair (§3.2): local repair cannot block on the remote service, so the
// re-executed handler observes a timeout, which is later corrected by a
// replace_response from the remote side.
const StatusTimeout = 408

// NewRequest returns a Request with initialized maps.
func NewRequest(method, path string) Request {
	return Request{
		Method: method,
		Path:   path,
		Header: map[string]string{},
		Form:   map[string]string{},
	}
}

// NewResponse returns a Response with the given status and string body.
func NewResponse(status int, body string) Response {
	return Response{Status: status, Header: map[string]string{}, Body: []byte(body)}
}

// WithForm returns a copy of r with the given form values set.
func (r Request) WithForm(kv ...string) Request {
	if len(kv)%2 != 0 {
		panic("wire: WithForm requires key/value pairs")
	}
	c := r.Clone()
	if c.Form == nil {
		c.Form = map[string]string{}
	}
	for i := 0; i < len(kv); i += 2 {
		c.Form[kv[i]] = kv[i+1]
	}
	return c
}

// WithHeader returns a copy of r with the given header values set.
func (r Request) WithHeader(kv ...string) Request {
	if len(kv)%2 != 0 {
		panic("wire: WithHeader requires key/value pairs")
	}
	c := r.Clone()
	if c.Header == nil {
		c.Header = map[string]string{}
	}
	for i := 0; i < len(kv); i += 2 {
		c.Header[kv[i]] = kv[i+1]
	}
	return c
}

// Clone returns a deep copy of the request.
func (r Request) Clone() Request {
	c := r
	c.Header = cloneMap(r.Header)
	c.Form = cloneMap(r.Form)
	if r.Body != nil {
		c.Body = append([]byte(nil), r.Body...)
	}
	return c
}

// Clone returns a deep copy of the response.
func (r Response) Clone() Response {
	c := r
	c.Header = cloneMap(r.Header)
	if r.Body != nil {
		c.Body = append([]byte(nil), r.Body...)
	}
	return c
}

func cloneMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// AireHeaders lists every Aire protocol header (dependency tracking and
// delivery identity). It is the single source of truth: semantic request
// equality excludes exactly these, and the HTTP adapter's canonicalization
// table is built from it — a header added here can never be readable on
// the bus but silently missing over real HTTP.
var AireHeaders = []string{
	HdrRequestID, HdrResponseID, HdrNotifierURL, HdrRepair,
	HdrDeliveryID, HdrGeneration, HdrOrigin,
	HdrTraceID, HdrTraceHop,
	HdrAckedSeq, HdrFrontierSeq, HdrNackSeq, HdrReoffer, HdrBodySum,
	HdrShard,
}

var aireHeaderSet = func() map[string]bool {
	m := make(map[string]bool, len(AireHeaders))
	for _, h := range AireHeaders {
		m[h] = true
	}
	return m
}()

// IsAireHeader reports whether h is one of the Aire protocol headers,
// which are excluded from semantic request equality: they change on every
// (re-)execution or (re-)delivery but do not affect what the operation
// does.
func IsAireHeader(h string) bool { return aireHeaderSet[h] }

func aireHeader(h string) bool { return IsAireHeader(h) }

// CanonicalKey returns a deterministic string identifying the semantic
// content of the request (method, path, non-Aire headers, form, body). Two
// requests with equal CanonicalKey are considered the same operation when
// local repair diffs re-executed outgoing calls against the log (§3.2).
func (r Request) CanonicalKey() string {
	var b strings.Builder
	b.WriteString(r.Method)
	b.WriteByte(' ')
	b.WriteString(r.Path)
	b.WriteByte('\n')
	writeSortedMap(&b, r.Header, aireHeader)
	writeSortedMap(&b, r.Form, nil)
	b.Write(r.Body)
	return b.String()
}

// CanonicalKey returns a deterministic string identifying the semantic
// content of the response (status, non-Aire headers, body).
func (r Response) CanonicalKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n", r.Status)
	writeSortedMap(&b, r.Header, aireHeader)
	b.Write(r.Body)
	return b.String()
}

func writeSortedMap(b *strings.Builder, m map[string]string, skip func(string) bool) {
	keys := make([]string, 0, len(m))
	for k := range m {
		if skip != nil && skip(k) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s=%s\n", k, m[k])
	}
	b.WriteByte(0)
}

// Equal reports whether two requests are semantically equal (ignoring Aire
// headers).
func (r Request) Equal(o Request) bool { return r.CanonicalKey() == o.CanonicalKey() }

// Equal reports whether two responses are semantically equal (ignoring Aire
// headers).
func (r Response) Equal(o Response) bool { return r.CanonicalKey() == o.CanonicalKey() }

// Encode serializes the request to JSON (map keys sorted, so encoding is
// deterministic).
func (r Request) Encode() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("wire: encode request: %v", err)) // maps of strings cannot fail
	}
	return b
}

// DecodeRequest parses a request previously produced by Encode.
func DecodeRequest(b []byte) (Request, error) {
	var r Request
	if err := json.Unmarshal(b, &r); err != nil {
		return Request{}, fmt.Errorf("wire: decode request: %w", err)
	}
	return r, nil
}

// Encode serializes the response to JSON.
func (r Response) Encode() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("wire: encode response: %v", err))
	}
	return b
}

// DecodeResponse parses a response previously produced by Encode.
func DecodeResponse(b []byte) (Response, error) {
	var r Response
	if err := json.Unmarshal(b, &r); err != nil {
		return Response{}, fmt.Errorf("wire: decode response: %w", err)
	}
	return r, nil
}

// BodySum computes the end-to-end checksum stamped as Aire-Body-Sum on
// repair-plane carriers: FNV-64a over the raw body bytes, fixed-width hex.
// Both sides share this one definition so a corrupted payload can never
// present a valid sum by construction drift.
func BodySum(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("%016x", h.Sum64())
}

// OK reports whether the response has a 2xx status.
func (r Response) OK() bool { return r.Status >= 200 && r.Status < 300 }

// String renders a short human-readable description of the request.
func (r Request) String() string {
	return fmt.Sprintf("%s %s form=%d hdr=%d body=%dB", r.Method, r.Path, len(r.Form), len(r.Header), len(r.Body))
}

// String renders a short human-readable description of the response.
func (r Response) String() string {
	return fmt.Sprintf("%d body=%q", r.Status, truncate(string(r.Body), 40))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
