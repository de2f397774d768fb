package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// A frame is §3.2's aggregation on the wire: one request that carries a
// sender's whole claimed batch of repair-plane carriers for one (peer,
// shard), answered by one response per carrier in the same order.
// Frame-level metadata — the version-vector announcement, the destination
// shard, and the body checksum — rides once, on the outer request's
// headers.
//
// The body is a length-prefixed binary encoding, read in one pass:
//
//	frame   = version count carrier{count}
//	carrier = str(method) str(path) map(header) map(form) str(body)
//	reply   = version count answer{count}
//	answer  = uvarint(status) map(header) str(body)
//	map     = uvarint(n) (str(key) str(value)){n}, keys strictly ascending
//	str     = uvarint(len) byte{len}
//
// version is one byte (frameVersion); count is a uvarint between 1 and
// MaxFrameCarriers. The decoder checks the count before it decodes any
// carrier, and every length and count against the bytes left before it
// reads or allocates, so a decode allocates at most a small multiple of
// its input; it refuses trailing bytes, unsorted or repeated map keys, and
// any other version byte (a JSON body included). The encoding is
// canonical: a decoded frame re-encodes to the bytes it came from. Frames
// are never persisted — the WAL records queue entries, not frames — so
// the layout can change with the version byte alone.
//
// A lone repair carrier (POST /aire/repair or /aire/notify) is the n = 1
// frame: receivers handle both through one path.

// FramePath is the repair-plane endpoint that accepts frames.
const FramePath = "/aire/frame"

// MaxFrameCarriers bounds how many carriers one frame may hold; the decoder
// refuses a longer frame without decoding past the bound.
const MaxFrameCarriers = 256

// MaxBodyBytes is the largest request body a receiver reads (the HTTP
// adapter answers 413 beyond it). Senders pack frames under it.
const MaxBodyBytes = 8 << 20

// frameVersion is the first byte of every frame and frame reply body.
const frameVersion = 1

// Every encoded element takes at least one byte per length or count it
// holds: five for a carrier, three for an answer. A count the bytes left
// cannot hold is refused before anything is allocated for it.
const (
	minCarrierBytes = 5
	minAnswerBytes  = 3
)

// EncodeFrame serializes carriers as one frame body.
func EncodeFrame(carriers []Request) []byte {
	n := 1 + binary.MaxVarintLen64
	for i := range carriers {
		n += carrierSize(&carriers[i])
	}
	b := make([]byte, 0, n)
	b = append(b, frameVersion)
	b = binary.AppendUvarint(b, uint64(len(carriers)))
	for i := range carriers {
		b = AppendRequest(b, &carriers[i])
	}
	return b
}

// PackFrames splits carriers, in order, into frame bodies that each hold at
// most MaxFrameCarriers carriers and at most MaxBodyBytes bytes (a lone
// carrier larger than that still travels, alone, for the receiver to
// refuse). counts[i] is how many carriers bodies[i] holds.
func PackFrames(carriers []Request) (bodies [][]byte, counts []int) {
	start, size := 0, 0
	for i := range carriers {
		n := carrierSize(&carriers[i])
		// A frame spends a version byte and its count outside its carriers.
		if k := i - start; k == MaxFrameCarriers || k > 0 && 1+uvarintLen(uint64(k+1))+size+n > MaxBodyBytes {
			bodies, counts = append(bodies, EncodeFrame(carriers[start:i])), append(counts, i-start)
			start, size = i, 0
		}
		size += n
	}
	if start < len(carriers) {
		bodies, counts = append(bodies, EncodeFrame(carriers[start:])), append(counts, len(carriers)-start)
	}
	return bodies, counts
}

// DecodeFrame parses a frame body: the version byte, a count of 1 to
// MaxFrameCarriers, that many carriers, and nothing after them.
func DecodeFrame(b []byte) ([]Request, error) {
	d, n, err := openFrame(b, minCarrierBytes)
	if err != nil {
		return nil, fmt.Errorf("wire: decode frame: %w", err)
	}
	out := make([]Request, n)
	for i := range out {
		out[i] = d.Request()
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("wire: decode frame: %w", err)
	}
	return out, nil
}

// EncodeFrameReply serializes the per-carrier responses to a frame.
func EncodeFrameReply(resps []Response) []byte {
	n := 1 + binary.MaxVarintLen64
	for i := range resps {
		r := &resps[i]
		n += uvarintLen(uint64(r.Status)) + mapSize(r.Header) + StrSize(len(r.Body))
	}
	b := make([]byte, 0, n)
	b = append(b, frameVersion)
	b = binary.AppendUvarint(b, uint64(len(resps)))
	for i := range resps {
		r := &resps[i]
		b = binary.AppendUvarint(b, uint64(r.Status))
		b = AppendMap(b, r.Header)
		b = AppendStr(b, r.Body)
	}
	return b
}

// DecodeFrameReply parses a frame reply, which must answer exactly n
// carriers.
func DecodeFrameReply(b []byte, n int) ([]Response, error) {
	d, m, err := openFrame(b, minAnswerBytes)
	if err == nil && m != n {
		err = fmt.Errorf("%d responses for %d carriers", m, n)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: decode frame reply: %w", err)
	}
	out := make([]Response, m)
	for i := range out {
		r := &out[i]
		r.Status = int(d.Uvarint(math.MaxInt32))
		r.Header = d.StrMap()
		r.Body = d.Bytes()
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("wire: decode frame reply: %w", err)
	}
	return out, nil
}

// HandleFrame answers req carrier by carrier: a frame is decoded, handle
// runs on each carrier in order, and the replies are framed back; any other
// request goes to handle as is (the n = 1 case). Peers that are not Aire
// controllers — test doubles, the storm harness's slow peers — serve frames
// with it.
func HandleFrame(req Request, handle func(Request) Response) Response {
	if req.Path != FramePath {
		return handle(req)
	}
	carriers, err := DecodeFrame(req.Body)
	if err != nil {
		return NewResponse(400, "aire: "+err.Error())
	}
	resps := make([]Response, len(carriers))
	for i, c := range carriers {
		resps[i] = handle(c)
	}
	return Response{Status: 200, Header: map[string]string{}, Body: EncodeFrameReply(resps)}
}

// ---- encoding ----------------------------------------------------------

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// StrSize returns the bytes AppendStr takes for a string of length n.
func StrSize(n int) int { return uvarintLen(uint64(n)) + n }

func mapSize(m map[string]string) int {
	n := uvarintLen(uint64(len(m)))
	for k, v := range m {
		n += StrSize(len(k)) + StrSize(len(v))
	}
	return n
}

func carrierSize(r *Request) int {
	return StrSize(len(r.Method)) + StrSize(len(r.Path)) + mapSize(r.Header) + mapSize(r.Form) + StrSize(len(r.Body))
}

// AppendStr appends s as a uvarint length and its bytes.
func AppendStr[S string | []byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendMap appends m as a uvarint count and its entries in ascending key
// order, so equal maps encode to equal bytes.
func AppendMap(b []byte, m map[string]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	if len(m) == 0 {
		return b
	}
	var buf [16]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = AppendStr(b, k)
		b = AppendStr(b, m[k])
	}
	return b
}

// AppendRequest appends r as a frame carries it: method, path, header,
// form and body. Decoder.Request reads it back.
func AppendRequest(b []byte, r *Request) []byte {
	b = AppendStr(b, r.Method)
	b = AppendStr(b, r.Path)
	b = AppendMap(b, r.Header)
	b = AppendMap(b, r.Form)
	return AppendStr(b, r.Body)
}

// AppendResponse appends r as a zigzag varint status, its header and its
// body, so any status a peer sent round-trips. Decoder.Response reads it
// back. Frame replies do not use it: an answer's status is a uvarint
// bounded by MaxInt32.
func AppendResponse(b []byte, r *Response) []byte {
	b = binary.AppendVarint(b, int64(r.Status))
	b = AppendMap(b, r.Header)
	return AppendStr(b, r.Body)
}

// ---- decoding ----------------------------------------------------------

// Decoder reads the length-prefixed encoding of frames (and of the WAL's
// ops, which reuse it) in one pass over one string. Every string it
// returns is a substring of that string, so a decode makes one string
// allocation however many strings it reads; byte slices are copied out
// individually so a stored body never pins the whole input. It refuses a
// non-minimal uvarint, a length or count larger than the bytes left, and
// unsorted or repeated map keys. The first failure sticks: later reads
// return zero values and Close reports it.
type Decoder struct {
	s   string
	off int // bytes read so far
	err error
}

// NewDecoder returns a decoder over s.
func NewDecoder(s string) Decoder { return Decoder{s: s} }

// openFrame checks a body's version byte and element count, refusing a
// count over MaxFrameCarriers, or one the bytes left could not hold at
// minBytes per element, before the body is copied or anything decoded.
func openFrame(b []byte, minBytes int) (*Decoder, int, error) {
	if len(b) == 0 {
		return nil, 0, errors.New("empty body")
	}
	if b[0] != frameVersion {
		return nil, 0, fmt.Errorf("version byte %#x, want %#x", b[0], frameVersion)
	}
	n, k, err := ReadUvarint(b[1:], MaxFrameCarriers)
	left := len(b) - 1 - k
	switch {
	case err != nil:
		return nil, 0, err
	case n == 0:
		return nil, 0, errors.New("no elements")
	case n > uint64(left/minBytes):
		return nil, 0, fmt.Errorf("%d elements in %d bytes", n, left)
	}
	return &Decoder{s: string(b), off: 1 + k}, int(n), nil
}

// ReadUvarint reads one minimally encoded uvarint no larger than limit
// from the front of s and returns it with its length. It refuses a
// truncated ("truncated") or non-minimal ("malformed length") encoding and
// a value over limit.
func ReadUvarint[S string | []byte](s S, limit uint64) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(s) && i < binary.MaxVarintLen64; i++ {
		c := s[i]
		if c < 0x80 {
			if i > 0 && c == 0 || i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, 0, errors.New("malformed length")
			}
			if x |= uint64(c) << (7 * i); x > limit {
				return 0, 0, fmt.Errorf("value %d over its bound %d", x, limit)
			}
			return x, i + 1, nil
		}
		x |= uint64(c&0x7f) << (7 * i)
	}
	if len(s) < binary.MaxVarintLen64 {
		return 0, 0, errors.New("truncated")
	}
	return 0, 0, errors.New("malformed length")
}

// Left reports how many bytes are still unread.
func (d *Decoder) Left() int { return len(d.s) - d.off }

// fail records err as the decode's failure unless one is already recorded.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint reads one minimally encoded uvarint no larger than limit.
func (d *Decoder) Uvarint(limit uint64) uint64 {
	if d.err != nil {
		return 0
	}
	x, k, err := ReadUvarint(d.s[d.off:], limit)
	if err != nil {
		d.fail(err)
		return 0
	}
	d.off += k
	return x
}

// Varint reads one zigzag varint, minimally encoded.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint(math.MaxUint64)
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads a byte that must be 0 or 1.
func (d *Decoder) Bool() bool { return d.Uvarint(1) == 1 }

// span reads a length prefix and returns the offsets of the bytes it
// covers, refusing a length larger than the bytes left.
func (d *Decoder) span() (int, int) {
	n := int(d.Uvarint(math.MaxInt32))
	if d.err == nil && n > d.Left() {
		d.fail(fmt.Errorf("truncated: length %d over the %d bytes left", n, d.Left()))
	}
	if d.err != nil {
		return 0, 0
	}
	d.off += n
	return d.off - n, d.off
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	i, j := d.span()
	return d.s[i:j]
}

// Bytes reads a length-prefixed byte string into a copy of its own; an
// empty one decodes to nil.
func (d *Decoder) Bytes() []byte {
	i, j := d.span()
	if i == j {
		return nil
	}
	return []byte(d.s[i:j])
}

// StrMap reads a map; an empty one decodes to nil. Each entry takes at
// least two bytes, so the count is checked against the bytes left before
// the map is made.
func (d *Decoder) StrMap() map[string]string {
	n := int(d.Uvarint(uint64(d.Left() / 2)))
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k, v := d.Str(), d.Str()
		if i > 0 && k <= prev {
			d.fail(errors.New("map keys out of order"))
		}
		m[k], prev = v, k
	}
	return m
}

// Request reads what AppendRequest wrote.
func (d *Decoder) Request() Request {
	var r Request
	r.Method, r.Path = d.Str(), d.Str()
	r.Header, r.Form = d.StrMap(), d.StrMap()
	r.Body = d.Bytes()
	return r
}

// Response reads what AppendResponse wrote.
func (d *Decoder) Response() Response {
	var r Response
	r.Status = int(d.Varint())
	r.Header = d.StrMap()
	r.Body = d.Bytes()
	return r
}

// Close reports the first failure, or bytes left over after the last
// element.
func (d *Decoder) Close() error {
	if d.err == nil && d.Left() > 0 {
		d.err = fmt.Errorf("%d trailing bytes", d.Left())
	}
	return d.err
}
