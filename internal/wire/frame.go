package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// A frame is §3.2's aggregation on the wire: one request that carries a
// sender's whole claimed batch of repair-plane carriers for one (peer,
// shard), answered by one response per carrier in the same order. The body
// is a JSON array of carriers, each exactly what Request.Encode writes; the
// reply body is a JSON array of what Response.Encode writes. Frame-level
// metadata — the version-vector announcement, the destination shard, and
// the body checksum — rides once, on the outer request's headers.
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

// EncodeFrame serializes carriers as one frame body.
func EncodeFrame(carriers []Request) []byte {
	enc := make([][]byte, len(carriers))
	for i, c := range carriers {
		enc[i] = c.Encode()
	}
	return joinArray(enc)
}

// PackFrames splits carriers, in order, into frame bodies that each hold at
// most MaxFrameCarriers carriers and at most MaxBodyBytes bytes (a lone
// carrier larger than that still travels, alone, for the receiver to
// refuse). counts[i] is how many carriers bodies[i] holds.
func PackFrames(carriers []Request) (bodies [][]byte, counts []int) {
	var cur [][]byte
	size := 2 // the enclosing brackets
	flush := func() {
		if len(cur) > 0 {
			bodies = append(bodies, joinArray(cur))
			counts = append(counts, len(cur))
		}
		cur, size = nil, 2
	}
	for _, c := range carriers {
		e := c.Encode()
		if len(cur) == MaxFrameCarriers || len(cur) > 0 && size+1+len(e) > MaxBodyBytes {
			flush()
		}
		cur = append(cur, e)
		size += 1 + len(e)
	}
	flush()
	return bodies, counts
}

// DecodeFrame parses a frame body: a non-empty JSON array of at most
// MaxFrameCarriers encoded requests, and nothing after it.
func DecodeFrame(b []byte) ([]Request, error) {
	var out []Request
	err := decodeArray(b, func(raw json.RawMessage) error {
		r, err := DecodeRequest(raw)
		out = append(out, r)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("wire: decode frame: %w", err)
	}
	return out, nil
}

// EncodeFrameReply serializes the per-carrier responses to a frame.
func EncodeFrameReply(resps []Response) []byte {
	enc := make([][]byte, len(resps))
	for i, r := range resps {
		enc[i] = r.Encode()
	}
	return joinArray(enc)
}

// DecodeFrameReply parses a frame reply, which must answer exactly n
// carriers.
func DecodeFrameReply(b []byte, n int) ([]Response, error) {
	var out []Response
	err := decodeArray(b, func(raw json.RawMessage) error {
		r, err := DecodeResponse(raw)
		out = append(out, r)
		return err
	})
	if err == nil && len(out) != n {
		err = fmt.Errorf("%d responses for %d carriers", len(out), n)
	}
	if err != nil {
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

func joinArray(elems [][]byte) []byte {
	n := 2
	for _, e := range elems {
		n += len(e) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, '[')
	for i, e := range elems {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e...)
	}
	return append(b, ']')
}

// decodeArray streams a non-empty JSON array of at most MaxFrameCarriers
// elements into each, refusing trailing data.
func decodeArray(b []byte, each func(json.RawMessage) error) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	if t, err := dec.Token(); err != nil || t != json.Delim('[') {
		return errors.New("not a JSON array")
	}
	n := 0
	for dec.More() {
		if n == MaxFrameCarriers {
			return fmt.Errorf("more than %d elements", MaxFrameCarriers)
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return err
		}
		if err := each(raw); err != nil {
			return err
		}
		n++
	}
	if _, err := dec.Token(); err != nil {
		return err
	}
	if n == 0 {
		return errors.New("empty")
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the array")
	}
	return nil
}
